package core

import (
	"math"

	"repro/internal/fpm"
)

// Prune applies the post-exploration redundancy pruning of Sec. 3.5: a
// pattern I is removed when some item α ∈ I changes the divergence by at
// most eps, i.e. |Δ(I) − Δ(I \ α)| <= eps — the shorter pattern I \ α
// already captures (up to eps) the divergence of I. Singletons are
// compared against the empty itemset (Δ = 0), so items with |Δ| <= eps
// are pruned too.
//
// Patterns on which the metric is undefined are pruned: they carry no
// rate information under m. The surviving patterns are returned in the
// result's canonical order.
func (r *Result) Prune(m Metric, eps float64) []Pattern {
	var out []Pattern
	for i, keep := range r.survivors(m, eps) {
		if keep {
			out = append(out, r.Patterns[i])
		}
	}
	return out
}

// PrunedCount returns how many patterns survive pruning at eps — the
// quantity swept in Figure 10.
func (r *Result) PrunedCount(m Metric, eps float64) int {
	n := 0
	for _, keep := range r.survivors(m, eps) {
		if keep {
			n++
		}
	}
	return n
}

// survivors marks, in pattern order, the patterns that survive pruning
// at eps, reading each Δ(I \ α) from the parent index.
func (r *Result) survivors(m Metric, eps float64) []bool {
	divs := r.divergences(m)
	keep := make([]bool, len(r.Patterns))
	rest := r.parents
	for i, p := range r.Patterns {
		parents := rest[:len(p.Items)]
		rest = rest[len(p.Items):]
		keep[i] = definedOn(p.Tally, m) && !redundant(divs[i], parents, divs, eps)
	}
	return keep
}

// redundant reports whether some parent's divergence is within eps of
// div.
func redundant(div float64, parents []int32, divs []float64, eps float64) bool {
	for _, q := range parents {
		if parentDiv, ok := parentDivergence(q, divs); ok && math.Abs(div-parentDiv) <= eps {
			return true
		}
	}
	return false
}

// TopKPruned ranks the patterns surviving redundancy pruning, as in
// Table 6: the most divergent non-redundant itemsets. k <= 0 yields an
// empty result.
func (r *Result) TopKPruned(m Metric, eps float64, k int, order RankOrder) []Ranked {
	return r.selectRanked(m, k, order, r.survivors(m, eps))
}

// MarginalContribution returns Δ(I) − Δ(I\α) for α ∈ I, the quantity the
// pruning rule thresholds. The second return is false when I or I\α is
// not frequent or the metric is undefined on either.
func (r *Result) MarginalContribution(is fpm.Itemset, alpha fpm.Item, m Metric) (float64, bool) {
	if !is.Contains(alpha) {
		return 0, false
	}
	p, ok := r.Lookup(is)
	if !ok || math.IsNaN(r.Rate(p.Tally, m)) {
		return 0, false
	}
	parent := is.Without(alpha)
	var parentDiv float64
	if len(parent) > 0 {
		pp, ok := r.Lookup(parent)
		if !ok || math.IsNaN(r.Rate(pp.Tally, m)) {
			return 0, false
		}
		parentDiv = r.DivergenceOfTally(pp.Tally, m)
	}
	return r.DivergenceOfTally(p.Tally, m) - parentDiv, true
}
