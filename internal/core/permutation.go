package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/fpm"
	"repro/internal/permtest"
	"repro/internal/stats"
)

// Permutation-grounded significance (DESIGN.md §15). The analytic
// Benjamini–Hochberg pass in significance.go treats the itemset tests
// as if they were independent; overlapping itemsets are anything but.
// The machinery here resamples instead: outcome labels are permuted
// (covers are invariant, so each permutation is one tally re-fold via
// internal/permtest), and either the Westfall–Young step-down max-T
// construction controls the family-wise error rate under the true
// dependence structure, or BH runs over the raw permutation p-values
// (permutation FDR).

// PermutationOutcome is one full permutation test over every pattern on
// which the metric is defined.
type PermutationOutcome struct {
	// Tested annotates each hypothesis — in mining order — with its raw
	// permutation p-value (P) and Westfall–Young adjusted p-value (AdjP).
	Tested []Significant
	// Permutations is the number actually run; Exhaustive marks the
	// exact small-N enumeration regime.
	Permutations int
	Exhaustive   bool
}

// PermutationTest runs Westfall–Young max-T permutation testing over
// the Welch statistics of every mined pattern on which the metric is
// defined (the same hypothesis set RankAll scores). The context cancels
// the permutation schedule within one permutation per worker.
func (r *Result) PermutationTest(ctx context.Context, m Metric, cfg permtest.Config) (*PermutationOutcome, error) {
	tested, pr, err := r.permute(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	out := &PermutationOutcome{
		Tested:       make([]Significant, len(tested)),
		Permutations: pr.Permutations,
		Exhaustive:   pr.Exhaustive,
	}
	scorer := r.leaderboard(m, 0, ByDivergence)
	for i, pi := range tested {
		out.Tested[i] = r.significant(&scorer, pi, pr.RawP[i], pr.AdjP[i])
	}
	return out, nil
}

// permute runs the permutation engine over the patterns on which m is
// defined. It returns their positions in r.Patterns (mining order),
// aligned with the engine's per-hypothesis p-values; callers annotate
// only the hypotheses they keep.
func (r *Result) permute(ctx context.Context, m Metric, cfg permtest.Config) ([]int32, *permtest.Result, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	tested := make([]int32, 0, len(r.Patterns))
	itemsets := make([]fpm.Itemset, 0, len(r.Patterns))
	for i, p := range r.Patterns {
		if !math.IsNaN(m.Rate(p.Tally)) {
			tested = append(tested, int32(i))
			itemsets = append(itemsets, p.Items)
		}
	}
	eng, err := permtest.New(r.DB, itemsets, m.Pos, m.Neg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: permutation test: %w", err)
	}
	pr, err := eng.Run(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	return tested, pr, nil
}

// significant scores pattern pi, one on which the scorer's metric is
// defined, and annotates it with its p-values.
func (r *Result) significant(scorer *Leaderboard, pi int32, p, adjP float64) Significant {
	rk, _ := scorer.Rank(r.Patterns[pi].Items, r.Patterns[pi].Tally)
	return Significant{Ranked: rk, P: p, AdjP: adjP}
}

// SignificantPatternsWY returns the patterns surviving Westfall–Young
// family-wise error control at level alpha, sorted by the given order.
// It is the permutation-grounded counterpart of SignificantPatterns:
// AdjP is the step-down max-T adjusted p-value, valid under the
// dependence between overlapping itemsets.
func (r *Result) SignificantPatternsWY(ctx context.Context, m Metric, alpha float64, order RankOrder, cfg permtest.Config) ([]Significant, error) {
	tested, pr, err := r.permute(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, adj := range pr.AdjP {
		if adj <= alpha {
			n++
		}
	}
	out := make([]Significant, 0, n)
	scorer := r.leaderboard(m, 0, order)
	for i, pi := range tested {
		if pr.AdjP[i] <= alpha {
			out = append(out, r.significant(&scorer, pi, pr.RawP[i], pr.AdjP[i]))
		}
	}
	sortSignificant(out, order)
	return out, nil
}

// SignificantPatternsPermFDR returns the patterns surviving
// Benjamini–Hochberg FDR control at level q over the raw permutation
// p-values, sorted by the given order — analytic-free FDR: the per-test
// p-values come from resampling, only the multiplicity correction is
// BH. AdjP carries the BH-adjusted permutation p-value.
func (r *Result) SignificantPatternsPermFDR(ctx context.Context, m Metric, q float64, order RankOrder, cfg permtest.Config) ([]Significant, error) {
	tested, pr, err := r.permute(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	reject, adjusted := stats.BenjaminiHochberg(pr.RawP, q)
	n := 0
	for _, ok := range reject {
		if ok {
			n++
		}
	}
	out := make([]Significant, 0, n)
	scorer := r.leaderboard(m, 0, order)
	for i, pi := range tested {
		if reject[i] {
			out = append(out, r.significant(&scorer, pi, pr.RawP[i], adjusted[i]))
		}
	}
	sortSignificant(out, order)
	return out, nil
}

// sortSignificant orders significant patterns with the RankAll
// comparator, so every significance API reports in ranking order.
func sortSignificant(out []Significant, order RankOrder) {
	slices.SortFunc(out, func(a, b Significant) int { return rankedCmp(&a.Ranked, &b.Ranked, order) })
}

// MaxEntBaseline is the independence-model significance baseline of a
// pattern's support: how far the observed support deviates from the
// maximum-entropy (independence) model over the pattern's items, fit by
// IPF on the singleton marginals. A pattern whose support the
// independence model already explains (large P) is structurally
// unremarkable no matter how divergent its outcome rate; a tiny P marks
// genuine item interaction.
type MaxEntBaseline struct {
	ExpectedSupport float64 // model-expected relative support
	Observed        float64 // observed relative support
	Leverage        float64 // observed − expected
	P               float64 // two-sided binomial tail under the model
	Iterations      int     // IPF sweeps to convergence
}

// MaxEntBaselineOf fits the baseline for one frequent itemset. Every
// singleton of a frequent itemset is itself frequent (downward
// closure), so the marginals are always available from the result.
func (r *Result) MaxEntBaselineOf(is fpm.Itemset) (MaxEntBaseline, error) {
	if len(is) == 0 {
		return MaxEntBaseline{}, fmt.Errorf("core: max-entropy baseline of the empty itemset is trivial")
	}
	p, ok := r.Lookup(is)
	if !ok {
		return MaxEntBaseline{}, fmt.Errorf("core: itemset %s not frequent at support %v",
			r.DB.Catalog.Format(is), r.MinSup)
	}
	n := int64(r.DB.NumRows())
	marg := make([]float64, 0, len(is))
	for _, it := range is {
		sp, ok := r.Lookup(fpm.Itemset{it})
		if !ok {
			return MaxEntBaseline{}, fmt.Errorf("core: singleton %s missing from the result (corrupt pattern set?)",
				r.DB.Catalog.Format(fpm.Itemset{it}))
		}
		pj := float64(sp.Tally.Total()) / float64(n)
		if pj >= 1 {
			continue // a universal item constrains nothing
		}
		marg = append(marg, pj)
	}
	expected, iters := 1.0, 0
	if len(marg) > 0 {
		cells, it, err := stats.MaxEntIPF(marg, 0, 0)
		if err != nil {
			return MaxEntBaseline{}, fmt.Errorf("core: max-entropy fit: %w", err)
		}
		expected = cells[len(cells)-1]
		iters = it
	}
	obsCount := p.Tally.Total()
	observed := float64(obsCount) / float64(n)
	return MaxEntBaseline{
		ExpectedSupport: expected,
		Observed:        observed,
		Leverage:        observed - expected,
		P:               stats.BinomialTwoSidedP(n, obsCount, expected),
		Iterations:      iters,
	}, nil
}
