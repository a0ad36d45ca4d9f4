package core

import "repro/internal/fpm"

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

// newResult assembles a Result over mined patterns and builds both of
// its indexes: the key map behind Lookup, and the parent index that
// global divergence, corrective items, pruning and closed patterns read
// P∖α from (DESIGN.md §17). It is the only constructor, so every Result
// — fresh from a mine or restored by LoadResult — carries both.
func newResult(db *fpm.TxDB, minSup float64, minCount int64, miner string, patterns []Pattern) *Result {
	r := &Result{
		DB:       db,
		MinSup:   minSup,
		MinCount: minCount,
		Miner:    miner,
		Patterns: patterns,
		index:    make(map[string]int, len(patterns)),
		total:    db.TotalTally(),
	}
	var buf []byte
	n := 0
	for i, p := range patterns {
		buf = p.Items.AppendKey(buf[:0])
		// lint:ignore hotalloc the map retains one key string per pattern; that is the index's storage
		r.index[string(buf)] = i
		n += len(p.Items)
	}
	r.parents = make([]int32, 0, n)
	for _, p := range patterns {
		for j := range p.Items {
			if len(p.Items) == 1 {
				r.parents = append(r.parents, emptyParent)
				continue
			}
			buf = p.Items[j+1:].AppendKey(p.Items[:j].AppendKey(buf[:0]))
			q, ok := r.index[string(buf)]
			if !ok {
				q = int(missingParent)
			}
			r.parents = append(r.parents, int32(q))
		}
	}
	return r
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
