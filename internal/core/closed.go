package core

import "repro/internal/fpm"

// ClosedPatterns returns the closed frequent itemsets: patterns with no
// frequent superset of identical support. Closed patterns are a lossless
// summary of the exploration — every frequent itemset's tally equals the
// tally of its smallest closed superset — and complement the lossy
// ε-redundancy pruning of Sec. 3.5 when a compact but exact result is
// needed.
//
// The computation is one pass over the mined patterns: a pattern P of
// length ℓ "closes over" each (ℓ−1)-subset with the same support, so any
// subset matched that way is not closed. The subsets are read from the
// parent index.
func (r *Result) ClosedPatterns() []Pattern {
	notClosed := make([]bool, len(r.Patterns))
	rest := r.parents
	for _, p := range r.Patterns {
		parents := rest[:len(p.Items)]
		rest = rest[len(p.Items):]
		if len(p.Items) < 2 {
			// Length-1 patterns are handled below via their parents; the
			// empty itemset is not part of the result.
			continue
		}
		support := p.Tally.Total()
		for _, q := range parents {
			if q >= 0 && r.Patterns[q].Tally.Total() == support {
				notClosed[q] = true
			}
		}
	}
	// A length-1 pattern can also be closed w.r.t. the full dataset: if
	// its support equals |D| it is subsumed by the empty itemset, which by
	// convention is reported only when it is itself closed (always true);
	// we still keep such items out of the closed set.
	total := int64(r.DB.NumRows())
	var out []Pattern
	for i, p := range r.Patterns {
		if notClosed[i] {
			continue
		}
		if len(p.Items) == 1 && p.Tally.Total() == total {
			continue
		}
		out = append(out, p)
	}
	return out
}

// SmallestClosedSuperset returns the minimal-length closed superset of a
// frequent itemset (itself, when closed). This is the canonical
// representative whose tally equals the query's.
func (r *Result) SmallestClosedSuperset(is fpm.Itemset) (Pattern, bool) {
	p, ok := r.Lookup(is)
	if !ok {
		return Pattern{}, false
	}
	support := p.Tally.Total()
	current := p
	for {
		extended := false
		for _, q := range r.Patterns {
			if len(q.Items) != len(current.Items)+1 {
				continue
			}
			if q.Tally.Total() == support && q.Items.ContainsAll(current.Items) {
				current = q
				extended = true
				break
			}
		}
		if !extended {
			return current, true
		}
	}
}
