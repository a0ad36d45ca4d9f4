package core

import (
	"math"

	"repro/internal/fpm"
	"repro/internal/stats"
)

// Leaderboard keeps the k best patterns offered to it under one metric
// and ranking order, for callers that see patterns as a stream rather
// than as a mined Result: the running top-K of an analysis job's
// partial snapshots. It ranks under rankedBetter with the statistics
// Result.TopK computes, so once every pattern of a Result has been
// offered, in any order, Top equals that Result's TopK for the same
// metric, k and order. It is not safe for concurrent use.
type Leaderboard struct {
	m      Metric
	order  RankOrder
	rows   float64
	global float64 // the whole dataset's rate, with Result's safeRate fallback
	post   stats.PosteriorRate
	sel    *bestK[Ranked]
}

// NewLeaderboard returns an empty leaderboard of db's k best patterns
// under m and order. With k <= 0 it keeps nothing.
func NewLeaderboard(db *fpm.TxDB, m Metric, k int, order RankOrder) *Leaderboard {
	total := db.TotalTally()
	post := posteriorOf(total, m)
	global := rateOf(total, m)
	if math.IsNaN(global) {
		global = post.Mean()
	}
	return &Leaderboard{
		m:      m,
		order:  order,
		rows:   float64(db.NumRows()),
		global: global,
		post:   post,
		sel:    newBestK(max(k, 0), 0, func(a, b *Ranked) bool { return rankedBetter(a, b, order) }),
	}
}

// Offer ranks one pattern and keeps it while it is among the k best
// offered so far. Patterns on which the metric is undefined are
// skipped. A kept pattern retains items, which the caller must not
// modify afterwards.
func (l *Leaderboard) Offer(items fpm.Itemset, t fpm.Tally) {
	rate := rateOf(t, l.m)
	if l.sel.k == 0 || math.IsNaN(rate) {
		return
	}
	div := rate - l.global
	// A key below the weakest kept one cannot enter, so it skips the
	// Welch t.
	if w := l.sel.weakest(); w != nil && orderKey(l.order, div) < orderKey(l.order, w.Divergence) {
		return
	}
	l.sel.offer(Ranked{
		Items:      items,
		Tally:      t,
		Support:    float64(t.Total()) / l.rows,
		Rate:       rate,
		Divergence: div,
		T:          welchOf(t, l.m, l.post),
	})
}

// Top returns the kept patterns, best first. Offers may continue
// afterwards.
func (l *Leaderboard) Top() []Ranked { return l.sel.snapshot() }
