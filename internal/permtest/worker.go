package permtest

import (
	"math"
	"sync"

	"repro/internal/fpm"
)

// permWorker is one pool worker: a private label buffer, the permuted
// labelling in the forms the cover fold reads, decode scratch, and
// exceedance-count accumulators, all allocated once at construction and
// reused for every claimed permutation so the warm per-permutation pass
// allocates nothing.
type permWorker struct {
	e    *Engine
	seed int64
	fact []uint64 // non-nil selects exhaustive Lehmer decoding

	labels   []uint8    // permuted labels, len n
	split    *fpm.Split // labels as positive/negative row sets
	idxBuf   []int32    // Lehmer decode scratch, len n
	wyCount  []int64    // step-down exceedances, indexed by rank
	rawCount []int64    // raw exceedances, indexed by hypothesis
}

func newPermWorker(e *Engine, seed int64, fact []uint64) *permWorker {
	return &permWorker{
		e:        e,
		seed:     seed,
		fact:     fact,
		labels:   make([]uint8, e.n),
		split:    e.covers.NewSplit(),
		idxBuf:   make([]int32, e.n),
		wyCount:  make([]int64, e.m),
		rawCount: make([]int64, e.m),
	}
}

// run claims permutation indexes off the shared atomic work index until
// the schedule drains or the context is canceled — the fpm
// parallel-mine worker pattern. Because the shuffle for index b depends
// only on (seed, b), the claim order is irrelevant to the result.
//
// lint:hot
func (w *permWorker) run(r *permRun, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		b := int(r.next.Add(1)) - 1
		if b >= r.total || r.ctx.Err() != nil {
			return
		}
		w.pass(b)
		if r.progress != nil {
			r.progress(int(r.done.Add(1)), r.total)
		}
	}
}

// pass runs one full permutation: relabel, write the labelling as
// positive and negative row sets once, then a single sweep over the
// hypotheses from weakest to strongest observed statistic, maintaining
// the running successive maximum u_j = max over ranks >= j of the
// permuted statistic. u_j >= T_obs at rank j is one step-down (WY)
// exceedance; the per-hypothesis raw exceedance is counted in the same
// sweep. Warm passes are allocation-free: every buffer is reused.
//
// lint:hot
func (w *permWorker) pass(b int) {
	if w.fact != nil {
		w.decode(uint64(b))
	} else {
		w.shuffle(b)
	}
	e := w.e
	w.split.Fill(w.labels, e.pos, e.neg)
	u := math.Inf(-1)
	for j := e.m - 1; j >= 0; j-- {
		i := e.order[j]
		stat := e.statOf(int(i), w.split)
		if stat > u {
			u = stat
		}
		if u >= e.obsT[i] {
			w.wyCount[j]++
		}
		if stat >= e.obsT[i] {
			w.rawCount[i]++
		}
	}
}

// shuffle writes the b-th sampled label permutation into the buffer: a
// Fisher–Yates pass driven by a splitmix64 stream seeded from
// (seed, b), so the draw is a pure function of the permutation index.
//
// lint:hot
func (w *permWorker) shuffle(b int) {
	copy(w.labels, w.e.base)
	rng := splitmix{s: permSeed(w.seed, b)}
	for i := len(w.labels) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		w.labels[i], w.labels[j] = w.labels[j], w.labels[i]
	}
}

// decode writes the b-th lexicographic arrangement of the base labels
// by factorial-number-system (Lehmer code) decoding, so exhaustive mode
// enumerates each of the n! label orderings exactly once. Index 0 is
// the identity arrangement; its pass therefore always scores one
// exceedance at every rank, which is what makes count/B a valid exact
// p-value.
//
// lint:hot
func (w *permWorker) decode(b uint64) {
	n := len(w.labels)
	for i := range w.idxBuf {
		w.idxBuf[i] = int32(i)
	}
	remaining := n
	for i := 0; i < n; i++ {
		f := w.fact[remaining-1]
		k := int(b / f)
		b %= f
		w.labels[i] = w.e.base[w.idxBuf[k]]
		copy(w.idxBuf[k:], w.idxBuf[k+1:remaining])
		remaining--
	}
}

// splitmix is the splitmix64 generator: tiny state, cheap enough to
// reseed per permutation, which is what decouples the shuffle schedule
// from worker scheduling.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform draw from [0, n). The modulo bias is bounded
// by n/2^64 — immaterial against Monte-Carlo error at any feasible
// permutation count.
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// permSeed derives the stream seed for permutation b from the engine
// seed: one mixing step over the seed, then one over the permutation
// index, decorrelating consecutive indexes.
func permSeed(seed int64, b int) uint64 {
	r := splitmix{s: uint64(seed)}
	x := r.next()
	r.s = x ^ (uint64(b)+1)*0x9e3779b97f4a7c15
	return r.next()
}
