package fpm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataset"
)

// Streaming mining: MineVisit is the one entry point that emits
// patterns one by one instead of materializing the result, serving
// exploration (core.ExploreTopKAnytime), the monitor's re-mine, and any
// workload too large to hold, like german at s = 0.01 (3.5M itemsets).
// It runs through the same zero-alloc patternSink seam as Mine and
// Parallel, with two differences:
//
//   - Visit order. Top-level subproblems are visited in descending
//     support order (most frequent item first) instead of ascending item
//     id. Each per-item subproblem is independent and complete, so the
//     set of emitted patterns is unchanged — but the cheap, high-support
//     subproblems stream out first, which is what an interrupted mine
//     wants to have finished.
//   - Budgets. A deadline and/or a pattern-count budget cut the mine
//     short. Every pattern emitted before the cut carries its exact
//     tally (budgets only truncate, they never approximate), and the
//     returned AnytimeInfo says why the mine ended. The zero budget
//     streams every frequent pattern.
//
// Approximation enters only through SampleRows: mining a row sample
// trades exact tallies for speed, with the error quantified by the
// Hoeffding/Wilson bounds in internal/stats (see core.ExploreTopKAnytime).

// CompletionReason says how an anytime mine ended.
type CompletionReason uint8

const (
	// ReasonExhausted: every frequent pattern was visited; the answer is
	// exact and complete.
	ReasonExhausted CompletionReason = iota
	// ReasonDeadline: the deadline passed before the mine finished.
	ReasonDeadline
	// ReasonBudget: the pattern-count budget was reached.
	ReasonBudget
)

// String returns the wire name used by the /explore API and the WAL.
func (r CompletionReason) String() string {
	switch r {
	case ReasonExhausted:
		return "exhausted"
	case ReasonDeadline:
		return "deadline"
	case ReasonBudget:
		return "budget"
	default:
		return "unknown"
	}
}

// Partial reports whether the mine was cut short.
func (r CompletionReason) Partial() bool { return r != ReasonExhausted }

// AnytimeBudget bounds a MineVisit stream. The zero value is unlimited:
// the stream then holds exactly the patterns Mine returns, in a
// different order.
type AnytimeBudget struct {
	// Deadline, when non-zero, stops the mine once time.Now passes it.
	// The check runs at every subproblem boundary and every
	// deadlineCheckEvery-th pattern, so the overshoot is bounded by one
	// conditional-tree build.
	Deadline time.Time
	// MaxPatterns, when > 0, stops the mine after that many patterns
	// have been emitted.
	MaxPatterns int64
}

// AnytimeInfo reports how an anytime mine ended.
type AnytimeInfo struct {
	// Reason is why the mine stopped.
	Reason CompletionReason
	// Patterns counts the patterns emitted to the visitor.
	Patterns int64
}

// deadlineCheckEvery is the pattern cadence of deadline polls between
// subproblem boundaries. At typical emission rates (tens of ns per
// pattern) 512 patterns keep the overshoot well under a millisecond
// while making time.Now cost noise.
const deadlineCheckEvery = 512

// errAnytimeStop is the internal control-flow sentinel a budgeted sink
// returns to abort the recursion; MineVisit converts it back into a
// successful, partial result.
var errAnytimeStop = errors.New("fpm: anytime budget reached")

// Visitor receives one frequent pattern during a streaming mine. The
// Items slice is owned by the callee only for the duration of the call;
// clone it to retain it. Returning an error aborts the mine.
type Visitor func(p FrequentPattern) error

// anytimeSink adapts a Visitor to the mining core's patternSink with
// budget enforcement: before each emission it charges the pattern
// budget and polls the deadline, stopping the mine with errAnytimeStop
// once either is exhausted. It copies the borrowed suffix-stack slice
// into one reused scratch buffer and sorts it, so the whole stream
// costs a single pattern-sized buffer and stays allocation-free in
// steady state.
type anytimeSink struct {
	visit       Visitor
	scratch     Itemset
	deadline    time.Time
	maxPatterns int64
	count       int64
	reason      CompletionReason
}

// emit implements patternSink.
func (a *anytimeSink) emit(items Itemset, t Tally) error {
	if a.maxPatterns > 0 && a.count >= a.maxPatterns {
		a.reason = ReasonBudget
		return errAnytimeStop
	}
	if !a.deadline.IsZero() && a.count%deadlineCheckEvery == 0 && !time.Now().Before(a.deadline) {
		a.reason = ReasonDeadline
		return errAnytimeStop
	}
	a.count++
	a.scratch = append(a.scratch[:0], items...)
	sortItems(a.scratch)
	return a.visit(FrequentPattern{Items: a.scratch, Tally: t})
}

// MineVisit calls visit for every frequent pattern, with items sorted
// ascending within each pattern. Top-level subproblems are visited in
// descending support order, and the stream stops early when the budget
// runs out; the zero budget streams every pattern. Every emitted pattern
// carries its exact tally: budgets truncate the stream, they never
// distort it. The returned info says whether the stream is complete
// (ReasonExhausted) or why it was cut. A visitor error aborts the mine
// and is returned as-is.
func (FPGrowth) MineVisit(db *TxDB, minCount int64, budget AnytimeBudget, visit Visitor) (AnytimeInfo, error) {
	if minCount < 1 {
		return AnytimeInfo{}, fmt.Errorf("fpm: minCount %d < 1", minCount)
	}
	if visit == nil {
		return AnytimeInfo{}, fmt.Errorf("fpm: nil visitor")
	}
	s := newMineState(db.Catalog.NumItems(), db.Catalog.NumAttrs())
	return mineAnytime(s, db, minCount, budget, visit)
}

// mineAnytime is the warm-state core of MineVisit: reusing s
// across calls makes the whole budgeted mine allocation-free once the
// arenas reach their high-water marks (guarded in anytime_test.go).
//
// lint:hot
func mineAnytime(s *mineState, db *TxDB, minCount int64, budget AnytimeBudget, visit Visitor) (AnytimeInfo, error) {
	root := s.buildRoot(db, minCount)
	// Reorder the top-level subproblems by global rank (rank 0 = highest
	// support). Subproblems are independent, so only emission order
	// changes; the parallel miner relies on the same property.
	sortItemsByRank(root.items, s.order)
	sink := &s.anySink
	sink.visit = visit
	sink.deadline = budget.Deadline
	sink.maxPatterns = budget.MaxPatterns
	sink.count = 0
	sink.reason = ReasonExhausted
	// lint:ignore ctxflow anytime cancellation is the budget carried by the sink (deadline + pattern cap); the conjured root context is never canceled
	err := s.mineAll(context.Background(), root, 1, minCount, sink)
	sink.visit = nil // drop the visitor so the warm state does not pin it
	// Restore the ascending-item invariant buildRoot established, so a
	// warm state's next (non-anytime) caller sees the order it expects.
	sortItems(root.items)
	if err != nil {
		if errors.Is(err, errAnytimeStop) {
			return AnytimeInfo{Reason: sink.reason, Patterns: sink.count}, nil
		}
		return AnytimeInfo{}, err
	}
	return AnytimeInfo{Reason: ReasonExhausted, Patterns: sink.count}, nil
}

// sortItemsByRank heapsorts items ascending by their global insertion
// rank — i.e. descending support, ties by ascending item id. Ranks are
// unique, so the order is total and the unstable sort is deterministic.
func sortItemsByRank(a []Item, order []int32) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftItemsByRank(a, i, n, order)
	}
	for i := n - 1; i > 0; i-- {
		a[0], a[i] = a[i], a[0]
		siftItemsByRank(a, 0, i, order)
	}
}

func siftItemsByRank(a []Item, i, n int, order []int32) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && order[a[c+1]] > order[a[c]] {
			c++
		}
		if order[a[i]] >= order[a[c]] {
			return
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
}

// SampleRows returns a transaction database over n rows drawn uniformly
// without replacement with the given seed, preserving row order. The
// catalog, schema and row slices are shared with db (both are
// read-only), so a sample costs O(n) index bookkeeping, not a data
// copy. When n <= 0 or n >= db.NumRows() the original db is returned:
// there is nothing to sample away.
func SampleRows(db *TxDB, n int, seed int64) *TxDB {
	total := db.NumRows()
	if n <= 0 || n >= total {
		return db
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(total)[:n]
	sort.Ints(idx)
	rows := make([][]int32, n)
	classes := make([]uint8, n)
	for i, r := range idx {
		rows[i] = db.Data.Rows[r]
		classes[i] = db.Classes[r]
	}
	return &TxDB{
		Catalog: db.Catalog,
		Data:    &dataset.Dataset{Attrs: db.Data.Attrs, Rows: rows},
		Classes: classes,
		K:       db.K,
	}
}
