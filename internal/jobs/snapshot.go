package jobs

import (
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fpm"
)

// PartialPattern is one itemset in a snapshot or result summary, fully
// rendered (item names, not dense ids) so it stays meaningful after a
// restart, when the dataset may no longer be registered.
type PartialPattern struct {
	Items      []string `json:"itemset"`
	Support    float64  `json:"support"`
	Rate       float64  `json:"rate"`
	Divergence float64  `json:"divergence"`
}

// Snapshot is one partial-result snapshot of a running mine: the top-K
// itemsets by |divergence| among everything mined so far, plus counters.
// Seq increases with every update, so pollers of /jobs/{id}/partial can
// detect growth, and Done/Total/Patterns are monotone over a job's life.
type Snapshot struct {
	Seq      int64            `json:"seq"`
	Done     int              `json:"done"`
	Total    int              `json:"total"`
	Patterns int64            `json:"patterns"`
	Metric   string           `json:"metric,omitempty"`
	Top      []PartialPattern `json:"top"`
	Updated  time.Time        `json:"updated"`
	// Reason is set only by the final snapshot of an anytime exploration:
	// "exhausted", "deadline" or "budget". Empty on mid-stream snapshots
	// and on full-analysis jobs.
	Reason string `json:"reason,omitempty"`
}

// MetricSummary is the per-metric slice of a durable result summary.
type MetricSummary struct {
	Metric      string           `json:"metric"`
	OverallRate float64          `json:"overall_rate"`
	Top         []PartialPattern `json:"top_divergent"`
}

// ResultSummary is the durable, self-contained digest of a completed
// analysis that the store persists with the done record. Unlike the full
// *core.Result it does not reference the transaction database, so it
// survives a restart (and registry eviction) and is what the server
// serves for recovered jobs.
type ResultSummary struct {
	Rows     int             `json:"rows"`
	Attrs    int             `json:"attributes"`
	Patterns int             `json:"frequent_itemsets"`
	Support  float64         `json:"min_support"`
	Miner    string          `json:"miner"`
	Metrics  []MetricSummary `json:"metrics"`
}

// summarize digests a mined result into its durable summary: the top-K
// patterns by |divergence| for each requested metric. Metrics undefined
// on the whole dataset (all-⊥) are skipped — their divergence has no
// reference point, and NaN cannot survive JSON encoding anyway.
func summarize(res *core.Result, spec Spec) *ResultSummary {
	topK := spec.TopK
	if topK <= 0 {
		topK = 10
	}
	sum := &ResultSummary{
		Rows:     res.DB.NumRows(),
		Attrs:    res.DB.Catalog.NumAttrs(),
		Patterns: res.NumPatterns(),
		Support:  res.MinSup,
		Miner:    res.Miner,
	}
	for _, name := range spec.Metrics {
		m, err := core.MetricByName(name)
		if err != nil {
			continue // validated at submission; stale names are skipped
		}
		rate := res.GlobalRate(m)
		if math.IsNaN(rate) {
			continue
		}
		sum.Metrics = append(sum.Metrics, MetricSummary{
			Metric:      m.Name,
			OverallRate: rate,
			Top:         appendPartial(nil, res.DB.Catalog, res.TopK(m, topK, core.ByAbsDivergence)),
		})
	}
	return sum
}

// appendPartial renders ranked patterns with item names onto dst.
func appendPartial(dst []PartialPattern, cat *fpm.Catalog, rs []core.Ranked) []PartialPattern {
	for _, rk := range rs {
		dst = append(dst, PartialPattern{
			Items:      cat.Names(rk.Items),
			Support:    rk.Support,
			Rate:       rk.Rate,
			Divergence: rk.Divergence,
		})
	}
	return dst
}

// Tracker carries a running job's live telemetry out of the analysis
// function: progress counters and partial-result snapshots. The engine
// builds one per job run; a nil Tracker (the synchronous /analyze path,
// or tests) turns every method into a no-op. Methods are safe for
// concurrent use — the parallel miner calls them from several workers.
type Tracker struct {
	job     *Job
	every   time.Duration   // persistence cadence; <= 0 persists every update
	persist func(*Snapshot) // write-through to the store; may be nil

	mu          sync.Mutex
	seq         int64
	lastPersist time.Time
}

// Progress records mining-subproblem completion counts on the job. It
// has the signature fpm.Parallel.Progress expects. Concurrent workers
// count completions atomically but report them in any order, so the
// job keeps the largest count seen.
func (t *Tracker) Progress(done, total int) {
	if t == nil || t.job == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int64(done) > t.job.progressDone.Load() {
		t.job.progressDone.Store(int64(done))
	}
	t.job.progressTotal.Store(int64(total))
}

// Partial publishes a new partial-result snapshot: it is stamped with
// the next sequence number, made visible to pollers immediately, and
// written through to the store at the configured cadence (terminal
// persistence is the engine's job, so a rate-limited snapshot lost in a
// crash costs only staleness, never correctness). Publishing and
// persisting happen under the stamping lock, so neither can be
// overtaken by an older snapshot: the last one persisted is the live
// one whenever every update is persisted.
func (t *Tracker) Partial(snap Snapshot) {
	if t == nil || t.job == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	snap.Seq = t.seq
	snap.Updated = time.Now()
	t.job.partial.Store(&snap)
	if t.persist != nil &&
		(t.every <= 0 || t.lastPersist.IsZero() || time.Since(t.lastPersist) >= t.every) {
		t.lastPersist = snap.Updated
		t.persist(&snap)
	}
}

// partialAccum folds per-subproblem pattern batches into a running
// top-K-by-|divergence| leaderboard for one metric and publishes each
// resulting snapshot. It is the bridge between fpm.Parallel.Emit and
// Tracker.Partial.
type partialAccum struct {
	cat    *fpm.Catalog
	metric string
	tr     *Tracker // nil publishes nothing

	mu       sync.Mutex
	patterns int64
	done     int               // largest completion count seen, so Done is monotone
	top      *core.Leaderboard // nil when the metric is unknown or all-⊥ on the whole dataset
}

// newPartialAccum prepares an accumulator for the spec's first metric
// (the leaderboard metric for partial snapshots; the full result covers
// all metrics at completion) that publishes through tr. The leaderboard
// ranks exactly as summarize does, so the snapshot published after the
// last batch equals the first metric's summary.
func newPartialAccum(db *fpm.TxDB, spec Spec, tr *Tracker) *partialAccum {
	topK := spec.TopK
	if topK <= 0 {
		topK = 10
	}
	acc := &partialAccum{cat: db.Catalog, tr: tr}
	if len(spec.Metrics) > 0 {
		if m, err := core.MetricByName(spec.Metrics[0]); err == nil {
			acc.metric = m.Name
			if total := db.TotalTally(); !math.IsNaN(m.Rate(total)) {
				acc.top = core.NewLeaderboard(total, db.NumRows(), m, topK, core.ByAbsDivergence)
			}
		}
	}
	return acc
}

// add folds one emitted batch, publishes the snapshot reflecting it and
// returns it. Publishing under the accumulator's lock hands snapshots
// to the tracker in the order they were folded, so the last one
// published has seen every batch.
func (a *partialAccum) add(batch []fpm.FrequentPattern, done, total int) Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.patterns += int64(len(batch))
	a.done = max(a.done, done)
	var top []core.Ranked
	if a.top != nil {
		for _, p := range batch {
			a.top.Offer(p.Items, p.Tally)
		}
		top = a.top.Top()
	}
	snap := Snapshot{
		Done:     a.done,
		Total:    total,
		Patterns: a.patterns,
		Metric:   a.metric,
		Top:      appendPartial(make([]PartialPattern, 0, len(top)), a.cat, top),
	}
	a.tr.Partial(snap)
	return snap
}
