package fpm

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Parallel is the serving miner: the bitset kernel of kernel.go in batch
// order, with its top-level entries fanned out over a worker pool. Each
// entry's subtree is an independent subproblem, and joining the
// subtrees in entry order gives exactly FPGrowth's output, order
// included, with no final sort.
//
// Workers share only the read-only top-level layout and the
// per-subproblem result slots; each owns a kernel (depth lists, prefix,
// pattern arena), so there are no locks and no allocation contention.
type Parallel struct {
	// Workers bounds the pool size; runtime.GOMAXPROCS(0) when <= 0.
	Workers int
	// Progress, when non-nil, is called after each top-level subproblem
	// completes with the number of finished subproblems and the total
	// (the frequent-item count). It may be called concurrently from
	// several workers and must be cheap and non-blocking; the job engine
	// feeds it into per-job progress counters.
	Progress func(done, total int)
	// Emit, when non-nil, is called after each top-level subproblem
	// completes with the patterns that subproblem mined, before Progress.
	// The batch is shared with the final result: receivers must treat it
	// as read-only but may retain it. Like Progress, Emit may be called
	// concurrently from several workers; it is the seam the job engine
	// uses to accumulate partial-result snapshots while a long mine is
	// still underway.
	Emit func(batch []FrequentPattern, done, total int)
}

// Name implements Miner.
func (p Parallel) Name() string { return "bitset" }

// Mine implements Miner. Every search node checks the context, so a
// canceled mine stops within one node's extension pass per worker.
//
// lint:hot
func (p Parallel) Mine(ctx context.Context, db *TxDB, minCount int64) ([]FrequentPattern, error) {
	if minCount < 1 {
		return nil, fmt.Errorf("fpm: minCount %d < 1", minCount)
	}
	k0 := newKernel(db.Catalog)
	k0.prepare(db, minCount, false)
	k0.ctx, k0.done = ctx, ctx.Done()
	total := len(k0.levels[0].items)
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &parallelRun{results: make([][]FrequentPattern, total), emit: p.Emit, progress: p.Progress}
	var wg sync.WaitGroup
	for i := 1; i < workers && i < total; i++ {
		wg.Add(1)
		go r.spawn(newKernel(db.Catalog).share(k0), &wg)
	}
	r.work(k0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, mineCanceled{err}
	}
	return slices.Concat(r.results...), nil
}

// parallelRun is the shared state of one parallel mine: the atomic work
// index workers claim top-level entries from, and the per-entry result
// slots (indexed writes, so no locking).
type parallelRun struct {
	results  [][]FrequentPattern
	next     atomic.Int64 // work index into the top-level list
	done     atomic.Int64 // completed subproblems, for emit/progress
	emit     func(batch []FrequentPattern, done, total int)
	progress func(done, total int)
}

// spawn runs one pool worker on its own goroutine.
func (r *parallelRun) spawn(k *kernel, wg *sync.WaitGroup) {
	defer wg.Done()
	r.work(k)
}

// work claims top-level entries off the work index until the list is
// drained or the mine is canceled, mining each subtree with k. The
// kernel's output and pattern arena are append-only across the run, so
// every batch stays valid for receivers that retain it.
func (r *parallelRun) work(k *kernel) {
	total := len(r.results)
	for {
		idx := int(r.next.Add(1)) - 1
		if idx >= total {
			return
		}
		start := len(k.out)
		if k.sub(0, idx) != nil {
			return // canceled; Mine reports ctx.Err()
		}
		rs := k.out[start:len(k.out):len(k.out)]
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
