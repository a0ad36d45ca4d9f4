package core

import (
	"math"

	"repro/internal/fpm"
	"repro/internal/stats"
)

// Leaderboard is the one ranker (DESIGN.md §17): the only code that
// turns a tally into a Ranked pattern, and the only bounded top-K over
// them. A population — a mined dataset, a row sample of one, a monitor's
// window — is described by its whole tally and its row count; every
// pattern is scored against it (support over its rows, rate, divergence
// from its rate with safeRate's fallback, Welch t between the two
// posteriors) and the k best are kept under rankedBetter. The order is
// total, so once every pattern of a Result has been offered, in any
// order, Top equals that Result's TopK for the same metric, k and order.
// It is not safe for concurrent use.
type Leaderboard struct {
	m      Metric
	order  RankOrder
	rows   float64
	global float64 // the population's rate, with safeRate's fallback
	post   stats.PosteriorRate
	sel    bestK[Ranked]
}

// NewLeaderboard returns an empty leaderboard of the k best patterns
// under m and order, over a population of rows rows whose whole tally is
// total. With k <= 0 it keeps nothing and serves Rank alone.
func NewLeaderboard(total fpm.Tally, rows int, m Metric, k int, order RankOrder) *Leaderboard {
	l := newLeaderboard(total, rows, m, k, order, 0)
	return &l
}

// newLeaderboard is NewLeaderboard by value, with the heap allocated
// once at min(k, capHint) for callers that know their candidate count.
func newLeaderboard(total fpm.Tally, rows int, m Metric, k int, order RankOrder, capHint int) Leaderboard {
	return Leaderboard{
		m:      m,
		order:  order,
		rows:   float64(rows),
		global: m.safeRate(total),
		post:   m.posterior(total),
		sel:    newBestK(max(k, 0), capHint, betterUnder(order)),
	}
}

// Rank scores one pattern without offering it. ok is false when the
// metric is undefined on the pattern (every outcome ⊥).
func (l *Leaderboard) Rank(items fpm.Itemset, t fpm.Tally) (Ranked, bool) {
	rate := l.m.Rate(t)
	if math.IsNaN(rate) {
		return Ranked{}, false
	}
	return l.rank(items, t, rate), true
}

// rank scores a pattern whose rate is defined.
func (l *Leaderboard) rank(items fpm.Itemset, t fpm.Tally, rate float64) Ranked {
	return Ranked{
		Items:      items,
		Tally:      t,
		Support:    float64(t.Total()) / l.rows,
		Rate:       rate,
		Divergence: rate - l.global,
		T:          stats.WelchTPosterior(l.m.posterior(t), l.post),
	}
}

// Offer ranks one pattern and keeps it while it is among the k best
// offered so far. Patterns on which the metric is undefined are
// skipped. A kept pattern retains items, which the caller must not
// modify afterwards.
func (l *Leaderboard) Offer(items fpm.Itemset, t fpm.Tally) {
	if rk, ok := l.admit(items, t); ok {
		l.sel.offer(rk)
	}
}

// admit scores a pattern that would enter the k best kept so far, and
// reports false, keeping nothing, for one that would not or on which
// the metric is undefined. A caller that only lends items (the
// fpm.MineVisit stream) keeps a copy of an admitted pattern's itemset.
func (l *Leaderboard) admit(items fpm.Itemset, t fpm.Tally) (Ranked, bool) {
	rate := l.m.Rate(t)
	if l.sel.k == 0 || math.IsNaN(rate) {
		return Ranked{}, false
	}
	// A key below the weakest kept one cannot enter, so it skips the
	// Welch t.
	w := l.sel.weakest()
	if w != nil && orderKey(l.order, rate-l.global) < orderKey(l.order, w.Divergence) {
		return Ranked{}, false
	}
	rk := l.rank(items, t, rate)
	if w != nil && !rankedBetter(&rk, w, l.order) {
		return Ranked{}, false
	}
	return rk, true
}

// Top returns the kept patterns, best first. Offers may continue
// afterwards.
func (l *Leaderboard) Top() []Ranked { return l.sel.snapshot() }

// betterUnder is rankedBetter under order as a func that captures
// nothing, so building a leaderboard allocates no closure. Any order
// other than the two below ranks as ByDivergence, as orderKey reads it.
func betterUnder(order RankOrder) func(a, b *Ranked) bool {
	switch order {
	case ByAbsDivergence:
		return func(a, b *Ranked) bool { return rankedBetter(a, b, ByAbsDivergence) }
	case ByNegDivergence:
		return func(a, b *Ranked) bool { return rankedBetter(a, b, ByNegDivergence) }
	}
	return func(a, b *Ranked) bool { return rankedBetter(a, b, ByDivergence) }
}
