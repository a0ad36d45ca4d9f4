package core

import (
	"math/bits"
	"math/rand/v2"
	"slices"

	"repro/internal/fpm"
)

// Sentinels of the parent index for subsets that are not a position in
// Patterns.
const (
	// emptyParent marks the parent of a singleton: the empty itemset,
	// whose tally is the dataset total and whose divergence is 0.
	emptyParent int32 = -1
	// missingParent marks a subset absent from the result. Mined results
	// are downward closed, so only an inconsistent snapshot has one; every
	// consumer skips it.
	missingParent int32 = -2
)

// newResult assembles a Result over mined patterns, keeping the slice it
// is given, and builds both of its indexes: the itemset slots behind
// Lookup, and the parent index that global divergence, corrective items,
// pruning and closed patterns read P∖α from (DESIGN.md §17). It is the
// only constructor, so every Result — fresh from a mine or restored by
// LoadResult — carries both. An itemset that occurs twice resolves to
// its last position.
func newResult(db *fpm.TxDB, minSup float64, minCount int64, miner string, patterns []Pattern) *Result {
	size := 2
	for size < 2*len(patterns) {
		size <<= 1
	}
	r := &Result{
		DB:       db,
		MinSup:   minSup,
		MinCount: minCount,
		Miner:    miner,
		Patterns: patterns,
		slots:    make([]int32, size),
		seed:     rand.Uint64(),
		total:    db.TotalTally(),
	}
	n := 0
	for i := range patterns {
		r.slots[r.probe(patterns[i].Items, -1)] = int32(i + 1)
		n += len(patterns[i].Items)
	}
	r.parents = make([]int32, 0, n)
	for i := range patterns {
		is := patterns[i].Items
		for j := range is {
			q := emptyParent
			if len(is) > 1 {
				q = r.slots[r.probe(is, j)] - 1
				if q < 0 {
					q = missingParent
				}
			}
			r.parents = append(r.parents, q)
		}
	}
	return r
}

// probe returns the slot of the itemset is less is[skip] (all of is when
// skip < 0): the slot holding its position, or the empty slot that ends
// its probe sequence when it is not indexed. The slots are open
// addressed with linear probing and at most half full, so a probe ends.
func (r *Result) probe(is fpm.Itemset, skip int) int {
	mask := uint64(len(r.slots) - 1)
	for s := hashItems(is, skip, r.seed) & mask; ; s = (s + 1) & mask {
		q := r.slots[s]
		if q == 0 || equalLess(r.Patterns[q-1].Items, is, skip) {
			return int(s)
		}
	}
}

// mixK is the odd multiplier of hashItems: 2^64 divided by the golden
// ratio.
const mixK = 0x9e3779b97f4a7c15

// hashItems hashes the item ids of is less is[skip] under seed. Each
// item folds into the state through a full 64×64→128-bit multiply whose
// halves are XORed, so every slot bit depends on the seed and on every
// item: without the seed, no choice of items clusters the probes.
func hashItems(is fpm.Itemset, skip int, seed uint64) uint64 {
	h := seed
	for j, it := range is {
		if j != skip {
			hi, lo := bits.Mul64(h^uint64(uint32(it)), mixK)
			h = hi ^ lo
		}
	}
	return h
}

// equalLess reports whether p equals is less is[skip] (all of is when
// skip < 0).
func equalLess(p, is fpm.Itemset, skip int) bool {
	if skip < 0 {
		return slices.Equal(p, is)
	}
	return len(p) == len(is)-1 && slices.Equal(p[:skip], is[:skip]) && slices.Equal(p[skip:], is[skip+1:])
}

// parentDivergence returns the divergence of parent entry q given the
// divergence of every pattern: 0 for the empty itemset, and false for a
// missing subset, which callers skip.
func parentDivergence(q int32, divs []float64) (float64, bool) {
	switch q {
	case missingParent:
		return 0, false
	case emptyParent:
		return 0, true
	}
	return divs[q], true
}

// divergences returns Δ_f of every pattern, in pattern order, each
// computed by DivergenceOfTally's expression (with the dataset term
// hoisted) so sums over them match the per-tally path bit for bit.
func (r *Result) divergences(m Metric) []float64 {
	out := make([]float64, len(r.Patterns))
	global := m.safeRate(r.total)
	for i := range r.Patterns {
		out[i] = m.safeRate(r.Patterns[i].Tally) - global
	}
	return out
}

// definedDivergences is divergences with NaN wherever the metric is
// undefined: Rate is NaN there, and on a defined tally Rate − f(D) is
// exactly DivergenceOfTally.
func (r *Result) definedDivergences(m Metric) []float64 {
	out := make([]float64, len(r.Patterns))
	global := m.safeRate(r.total)
	for i := range r.Patterns {
		out[i] = m.Rate(r.Patterns[i].Tally) - global
	}
	return out
}
