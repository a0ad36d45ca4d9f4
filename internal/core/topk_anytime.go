package core

import (
	"fmt"
	"math"

	"repro/internal/fpm"
	"repro/internal/stats"
)

// Anytime top-K: the interactive tier's ranking core. It rides the
// budgeted mine from internal/fpm (support-descending visit order,
// deadline/pattern cutoffs) and keeps the k most divergent patterns in
// O(k) memory, with two guarantees the tests pin down:
//
//   - At unlimited budget the answer is byte-identical to the exhaustive
//     Result.TopK. Both rank through a Leaderboard, under one total
//     order, rankedBetter (key desc, then Welch t desc, then support
//     desc, then lexicographic itemset), not just the ranking key —
//     under a total order the top-k set is unique, so visit order
//     cannot matter.
//   - Under a budget, every reported pattern still carries its exact
//     statistics; budgets truncate the candidate stream, never distort
//     it. Approximation enters only via row sampling, and then every
//     estimate carries an explicit confidence interval
//     (stats.HoeffdingRadius for supports, stats.WilsonInterval for
//     rates — see DESIGN.md §14 for the math and its assumptions).

// DefaultConfidence is the two-sided confidence level for sampled-mine
// error bounds when AnytimeOptions.Confidence is zero.
const DefaultConfidence = 0.95

// defaultUpdateEvery is the OnUpdate cadence in visited patterns.
const defaultUpdateEvery = 4096

// AnytimeOptions configures ExploreTopKAnytime. The zero value is an
// unbudgeted, unsampled run, whose Top equals Result.TopK.
type AnytimeOptions struct {
	// Budget bounds the mine (deadline and/or pattern count); zero means
	// run to exhaustion.
	Budget fpm.AnytimeBudget
	// SampleRows, when in (0, NumRows), mines a uniform row sample of
	// that size instead of the full dataset. Estimates then carry
	// confidence intervals.
	SampleRows int
	// SampleSeed seeds the row sample for reproducibility.
	SampleSeed int64
	// Confidence is the two-sided level for the error bounds
	// (DefaultConfidence when zero).
	Confidence float64
	// OnUpdate, when set, receives a snapshot of the current top-k
	// (descending) every UpdateEvery visited patterns — the streaming
	// seam the jobs Tracker plugs into. The slice is freshly allocated
	// per call and safe to retain.
	OnUpdate func(top []RankedEstimate, visited int64)
	// UpdateEvery is the OnUpdate cadence in visited patterns
	// (defaultUpdateEvery when zero).
	UpdateEvery int64
}

// RankedEstimate is a Ranked pattern together with the confidence
// interval of each estimated statistic. On an unsampled run the
// intervals are degenerate: Lo == Hi == the exact value.
type RankedEstimate struct {
	Ranked
	SupportLo, SupportHi       float64
	RateLo, RateHi             float64
	DivergenceLo, DivergenceHi float64
}

// AnytimeTopK is the outcome of one anytime exploration.
type AnytimeTopK struct {
	// Top holds the best patterns seen, in the same descending order
	// Result.TopK uses.
	Top []RankedEstimate
	// Reason says whether the candidate stream was exhausted or why it
	// was cut short.
	Reason fpm.CompletionReason
	// Visited counts the frequent patterns the mine emitted before
	// stopping.
	Visited int64
	// Sampled reports whether the mine ran on a row sample.
	Sampled bool
	// SampleSize is the number of rows actually mined.
	SampleSize int
	// Confidence is the level of the reported intervals.
	Confidence float64
	// SupportEps is the Hoeffding half-width shared by every support
	// estimate (0 on an exact run).
	SupportEps float64
}

// Partial reports whether the result might be missing patterns.
func (a *AnytimeTopK) Partial() bool { return a.Reason.Partial() }

// ExploreTopKAnytime streams a (possibly budgeted, possibly sampled)
// mine and keeps the k most divergent patterns under the metric.
//
// The global rate f(D) is always computed exactly from the full
// dataset — only per-pattern statistics are estimated on a sample — so
// a sampled divergence estimate inherits exactly the pattern-rate
// interval, shifted by the constant global rate.
//
// lint:hot
func ExploreTopKAnytime(db *fpm.TxDB, minSup float64, m Metric, k int, order RankOrder, opts AnytimeOptions) (*AnytimeTopK, error) {
	if minSup < 0 || minSup > 1 {
		return nil, fmt.Errorf("core: support threshold %v out of [0,1]", minSup)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k %d < 1", k)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	conf := opts.Confidence
	// lint:ignore floatcmp the zero value is the explicit "use the default" sentinel
	if conf == 0 {
		conf = DefaultConfidence
	}
	if conf <= 0 || conf >= 1 {
		return nil, fmt.Errorf("core: confidence %v out of (0,1)", conf)
	}

	total := db.TotalTally()
	globalRate := m.Rate(total)
	if math.IsNaN(globalRate) {
		return nil, fmt.Errorf("core: metric %s undefined on the whole dataset", m.Name)
	}

	mdb := db
	sampled := false
	supportEps := 0.0
	if opts.SampleRows > 0 && opts.SampleRows < db.NumRows() {
		mdb = fpm.SampleRows(db, opts.SampleRows, opts.SampleSeed)
		sampled = mdb != db
	}
	if sampled {
		supportEps = stats.HoeffdingRadius(mdb.NumRows(), conf)
	}
	minCount := fpm.MinCount(mdb.NumRows(), minSup)
	// Intervals never change the order, so they are attached to the
	// patterns the leaderboard returns, not to every candidate.
	annotate := func(top []Ranked) []RankedEstimate {
		out := make([]RankedEstimate, len(top))
		for i, rk := range top {
			out[i] = estimate(rk, sampled, conf, supportEps, globalRate, m)
		}
		return out
	}

	updateEvery := opts.UpdateEvery
	if updateEvery <= 0 {
		updateEvery = defaultUpdateEvery
	}

	// Patterns are scored against the full dataset's rate over the mined
	// rows. The heap grows with the candidates seen, not with k, so an
	// oversized k costs nothing up front.
	lb := newLeaderboard(total, mdb.NumRows(), m, k, order, 0)
	var seen int64
	info, err := fpm.MineVisit(mdb, minCount, opts.Budget, func(p fpm.FrequentPattern) error {
		seen++
		if opts.OnUpdate != nil && seen%updateEvery == 0 {
			opts.OnUpdate(annotate(lb.Top()), seen)
		}
		// The miner lends p.Items, so only a pattern that enters is copied.
		if rk, ok := lb.admit(p.Items, p.Tally); ok {
			rk.Items = p.Items.Clone()
			lb.sel.offer(rk)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &AnytimeTopK{
		Top:        annotate(lb.sel.sorted()),
		Reason:     info.Reason,
		Visited:    info.Patterns,
		Sampled:    sampled,
		SampleSize: mdb.NumRows(),
		Confidence: conf,
		SupportEps: supportEps,
	}
	return out, nil
}

// estimate attaches confidence intervals to a ranked pattern. On an
// exact run the intervals collapse to the point estimates.
func estimate(rk Ranked, sampled bool, conf, supportEps, globalRate float64, m Metric) RankedEstimate {
	if !sampled {
		return rk.Exact()
	}
	e := RankedEstimate{Ranked: rk}
	e.SupportLo = math.Max(0, rk.Support-supportEps)
	e.SupportHi = math.Min(1, rk.Support+supportEps)
	kp, kn := m.Counts(rk.Tally)
	e.RateLo, e.RateHi = stats.WilsonInterval(kp, kp+kn, conf)
	// The global rate is exact, so the divergence interval is the rate
	// interval shifted by a constant.
	e.DivergenceLo = e.RateLo - globalRate
	e.DivergenceHi = e.RateHi - globalRate
	return e
}

// Exact is rk as an estimate of itself: exact statistics, so every
// interval collapses to its point.
func (rk Ranked) Exact() RankedEstimate {
	return RankedEstimate{
		Ranked:    rk,
		SupportLo: rk.Support, SupportHi: rk.Support,
		RateLo: rk.Rate, RateHi: rk.Rate,
		DivergenceLo: rk.Divergence, DivergenceHi: rk.Divergence,
	}
}
