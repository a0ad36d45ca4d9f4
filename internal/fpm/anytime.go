package fpm

import (
	"errors"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataset"
)

// Streaming mining: MineVisit (kernel.go) is the one entry point that
// emits patterns one by one instead of materializing the result,
// serving exploration (core.ExploreTopKAnytime), the monitor's re-mine,
// and any workload too large to hold, like german at s = 0.01 (3.5M
// itemsets). It runs the bitset kernel in its stream order (subtrees
// most frequent item first, each opening with its singleton), so the
// cheap, high-support patterns stream out first, which is what an
// interrupted mine wants to have finished. A deadline and/or a
// pattern-count budget cut the stream short. Every pattern emitted
// before the cut carries its exact tally (budgets only truncate, they
// never approximate), and the returned AnytimeInfo says why the mine
// ended. The zero budget streams every frequent pattern.
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
	// The check runs before every deadlineCheckEvery-th pattern, so the
	// overshoot is bounded by that many extension passes.
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

// deadlineCheckEvery is the pattern cadence of deadline polls. At
// typical emission rates (tens of ns per pattern) 512 patterns keep the
// overshoot well under a millisecond while making time.Now cost noise.
const deadlineCheckEvery = 512

// errAnytimeStop is the internal control-flow sentinel a spent budget
// returns to unwind the search; MineVisit converts it back into a
// successful, partial result.
var errAnytimeStop = errors.New("fpm: anytime budget reached")

// Visitor receives one frequent pattern during a streaming mine. The
// Items slice is owned by the callee only for the duration of the call;
// clone it to retain it. Returning an error aborts the mine.
type Visitor func(p FrequentPattern) error

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
