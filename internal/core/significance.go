package core

import (
	"math"
	"sort"

	"repro/internal/fpm"
	"repro/internal/stats"
)

// This file extends the paper's Bayesian significance treatment
// (Sec. 3.3) with exact interval and multiple-testing machinery: credible
// intervals on the posterior rate, two-sided p-values for the Welch
// statistic, and Benjamini–Hochberg control of the false discovery rate
// across the thousands of itemsets an exhaustive exploration tests
// simultaneously.

// CredibleInterval returns the equal-tailed Bayesian credible interval of
// the metric's rate on a tally, at the given level (e.g. 0.95).
func (r *Result) CredibleInterval(t fpm.Tally, m Metric, level float64) (lo, hi float64) {
	return r.PosteriorRate(t, m).CredibleInterval(level)
}

// PValue returns the two-sided p-value of the Welch statistic comparing
// the tally's rate with the whole-dataset rate. The dataset posterior has
// thousands of observations, so the normal limit of the t distribution is
// used.
func (r *Result) PValue(t fpm.Tally, m Metric) float64 {
	return stats.TwoSidedTPValue(r.TStat(t, m), 0)
}

// Significant is a pattern that survives FDR control, annotated with its
// raw and adjusted p-values.
type Significant struct {
	Ranked
	P    float64 // raw two-sided p-value
	AdjP float64 // Benjamini–Hochberg adjusted p-value
}

// SignificantPatterns returns the patterns whose divergence is
// statistically significant after Benjamini–Hochberg FDR control at
// level q, sorted by the given order. Patterns where the metric is
// undefined are excluded (they carry no evidence).
func (r *Result) SignificantPatterns(m Metric, q float64, order RankOrder) []Significant {
	all := r.RankAll(m, order)
	pvals := make([]float64, len(all))
	for i, rk := range all {
		pvals[i] = stats.TwoSidedTPValue(rk.T, 0)
	}
	reject, adjusted := stats.BenjaminiHochberg(pvals, q)
	out := make([]Significant, 0, len(all))
	for i, rk := range all {
		if reject[i] {
			out = append(out, Significant{Ranked: rk, P: pvals[i], AdjP: adjusted[i]})
		}
	}
	return out
}

// DivergenceCredible annotates a Ranked pattern with the credible
// interval of its rate and the posterior probability that its rate
// exceeds the dataset rate (for positive divergences) or falls below it
// (for negative ones) — a fully Bayesian alternative to the t ranking.
type DivergenceCredible struct {
	Ranked
	RateLo, RateHi float64 // credible interval of the subgroup rate
	PosteriorSign  float64 // P(rate on the divergent side of the dataset rate)
}

// DescribeCredible computes the Bayesian annotation for one frequent
// itemset at the given credible level.
func (r *Result) DescribeCredible(is fpm.Itemset, m Metric, level float64) (DivergenceCredible, error) {
	rk, err := r.Describe(is, m)
	if err != nil {
		return DivergenceCredible{}, err
	}
	post := r.PosteriorRate(rk.Tally, m)
	lo, hi := post.CredibleInterval(level)
	global := r.GlobalRate(m)
	var sign float64
	if rk.Divergence >= 0 {
		sign = post.TailProb(global)
	} else {
		sign = 1 - post.TailProb(global)
	}
	return DivergenceCredible{Ranked: rk, RateLo: lo, RateHi: hi, PosteriorSign: sign}, nil
}

// TopKCredible ranks patterns by the posterior probability that their
// rate lies on the divergent side of the dataset rate, breaking ties by
// |divergence|. This implements the "rank by statistical significance"
// option the paper mentions alongside divergence ranking.
func (r *Result) TopKCredible(m Metric, k int, level float64) []DivergenceCredible {
	global := r.GlobalRate(m)
	if math.IsNaN(global) {
		return nil
	}
	out := make([]DivergenceCredible, 0, len(r.Patterns))
	scorer := r.leaderboard(m, 0, ByAbsDivergence)
	for _, p := range r.Patterns {
		rk, ok := scorer.Rank(p.Items, p.Tally)
		if !ok {
			continue
		}
		post := r.PosteriorRate(p.Tally, m)
		lo, hi := post.CredibleInterval(level)
		var sign float64
		if rk.Divergence >= 0 {
			sign = post.TailProb(global)
		} else {
			sign = 1 - post.TailProb(global)
		}
		out = append(out, DivergenceCredible{Ranked: rk, RateLo: lo, RateHi: hi, PosteriorSign: sign})
	}
	sort.Slice(out, func(i, j int) bool {
		// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
		if out[i].PosteriorSign != out[j].PosteriorSign {
			return out[i].PosteriorSign > out[j].PosteriorSign
		}
		di, dj := math.Abs(out[i].Divergence), math.Abs(out[j].Divergence)
		// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
		if di != dj {
			return di > dj
		}
		return lessItemsets(out[i].Items, out[j].Items)
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
