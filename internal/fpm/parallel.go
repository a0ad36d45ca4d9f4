package fpm

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel is a parallel FP-growth miner: after the initial FP-tree is
// built, each frequent item's conditional tree is an independent mining
// task, so the per-item subproblems are fanned out over a worker pool.
// Output is identical (and identically ordered) to FPGrowth; the
// miner-ablation benchmark measures the speedup on itemset-heavy
// workloads such as german at low support.
//
// Each worker owns a full mineState (arena, frames, pattern arena), so
// workers share only the read-only initial tree and the per-subproblem
// result slots: no locks, no allocation contention, and the same
// zero-steady-state-allocation property as the sequential miner, per
// worker.
type Parallel struct {
	// Workers bounds the pool size; runtime.GOMAXPROCS(0) when <= 0.
	Workers int
	// Progress, when non-nil, is called after each per-item subproblem
	// completes with the number of finished subproblems and the total.
	// It may be called concurrently from several workers and must be
	// cheap and non-blocking; the job engine feeds it into per-job
	// progress counters.
	Progress func(done, total int)
	// Emit, when non-nil, is called after each per-item subproblem
	// completes with the patterns that subproblem mined, before Progress.
	// The batch is shared with the final result: receivers must treat it
	// as read-only but may retain it. Like Progress, Emit may be called
	// concurrently from several workers; it is the seam the job engine
	// uses to accumulate partial-result snapshots while a long mine is
	// still underway.
	Emit func(batch []FrequentPattern, done, total int)
}

// Name implements Miner.
func (p Parallel) Name() string { return "fpgrowth-parallel" }

// Mine implements Miner. Workers check the context before starting each
// per-item subproblem and inside the tree recursion, so a canceled mine
// stops within one conditional-tree step per worker.
//
// lint:hot
func (p Parallel) Mine(ctx context.Context, db *TxDB, minCount int64) ([]FrequentPattern, error) {
	if minCount < 1 {
		return nil, fmt.Errorf("fpm: minCount %d < 1", minCount)
	}
	s0 := newMineState(db.Catalog.NumItems(), db.Catalog.NumAttrs())
	root := s0.buildRoot(db, minCount)
	total := len(root.items)
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	run := &parallelRun{
		ctx:      ctx,
		db:       db,
		root:     root,
		order:    s0.order,
		minCount: minCount,
		results:  make([][]FrequentPattern, total),
		errs:     make([]error, total),
		emit:     p.Emit,
		progress: p.Progress,
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go run.work(&wg)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, mineCanceled{err}
	}
	for _, e := range run.errs {
		if e != nil {
			return nil, e
		}
	}

	n := 0
	for _, rs := range run.results {
		n += len(rs)
	}
	var out []FrequentPattern
	if n > 0 {
		out = make([]FrequentPattern, 0, n)
	}
	for _, rs := range run.results {
		out = append(out, rs...)
	}
	sortPatterns(out)
	return out, nil
}

// parallelRun is the shared state of one parallel mine: the read-only
// initial tree, the atomic work index workers claim subproblems from,
// and the per-subproblem result slots (indexed writes, so no locking).
type parallelRun struct {
	ctx      context.Context
	db       *TxDB
	root     *mineFrame
	order    []int32
	minCount int64
	results  [][]FrequentPattern
	errs     []error
	next     atomic.Int64 // work index into root.items
	done     atomic.Int64 // completed subproblems, for emit/progress
	emit     func(batch []FrequentPattern, done, total int)
	progress func(done, total int)
}

// work is one pool worker: it claims per-item subproblems off the work
// index until the list is drained or the context is canceled, mining
// each with its own private state.
func (r *parallelRun) work(wg *sync.WaitGroup) {
	defer wg.Done()
	s := newMineState(r.db.Catalog.NumItems(), r.db.Catalog.NumAttrs())
	s.order = r.order
	var col arenaCollector
	col.s = s
	total := len(r.root.items)
	for {
		idx := int(r.next.Add(1)) - 1
		if idx >= total || r.ctx.Err() != nil {
			return
		}
		// Start a fresh batch but keep the pattern arena: emitted batches
		// are retained by receivers, so the arena is append-only across
		// the worker's whole run.
		col.out = nil
		if err := s.mineSub(r.ctx, r.root, 0, r.root.items[idx], r.minCount, &col); err != nil {
			r.errs[idx] = err
			continue
		}
		rs := col.out
		// Canonicalize within the worker so emitted batches are never
		// mutated afterwards (Emit receivers may retain them).
		for i := range rs {
			sortItems(rs[i].Items)
		}
		r.results[idx] = rs
		if r.emit != nil || r.progress != nil {
			n := int(r.done.Add(1))
			if r.emit != nil {
				r.emit(rs, n, total)
			}
			if r.progress != nil {
				r.progress(n, total)
			}
		}
	}
}
