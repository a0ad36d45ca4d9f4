package core

import (
	"fmt"
	"math"

	"repro/internal/fpm"
	"repro/internal/stats"
)

// GlobalDivergence computes the support-bounded global divergence
// Δ̃^g(α, s) of every frequent single item (Def. 4.3, Eq. 8): the
// generalized Shapley value measuring how much the item changes
// divergence when added to frequent contexts across the whole lattice.
//
// The computation is a single pass over the mined patterns: each frequent
// pattern P containing item α contributes
//
//	w(|P|−1) / Π_{b ∈ attrs(P)} m_b · (Δ(P) − Δ(P \ α))
//
// to α's total, where w is the attribute-level coalition weight of Eq. 8
// and P \ α is read from the parent index.
func (r *Result) GlobalDivergence(m Metric) map[fpm.Item]float64 {
	return r.globalFromDivergence(func(t fpm.Tally) float64 {
		return r.DivergenceOfTally(t, m)
	})
}

// globalFromDivergence computes Eq. 8 for all frequent single items given
// an arbitrary divergence function over tallies. Keeping the divergence
// abstract makes the linearity axiom of Theorem 4.1 directly testable.
func (r *Result) globalFromDivergence(divOf func(fpm.Tally) float64) map[fpm.Item]float64 {
	divs := make([]float64, len(r.Patterns))
	for i, p := range r.Patterns {
		divs[i] = divOf(p.Tally)
	}
	global := r.globalByItem(divs)
	out := make(map[fpm.Item]float64)
	for _, p := range r.Patterns {
		if len(p.Items) == 1 {
			out[p.Items[0]] = global[p.Items[0]]
		}
	}
	return out
}

// globalByItem folds Eq. 8 over the parent index, given the divergence of
// every pattern in pattern order: entry α of the result, indexed by item,
// is Δ̃^g(α, s). Terms are added in pattern order, then item order.
func (r *Result) globalByItem(divs []float64) []float64 {
	cat := r.DB.Catalog
	nAttrs := cat.NumAttrs()
	out := make([]float64, cat.NumItems())
	rest := r.parents
	for i, p := range r.Patterns {
		parents := rest[:len(p.Items)]
		rest = rest[len(p.Items):]
		dP := divs[i]
		// Domain-size product over the attributes of P = B ∪ attr(α).
		prod := 1.0
		for _, it := range p.Items {
			prod *= float64(cat.Cardinality(cat.Attr(it)))
		}
		w := stats.GlobalShapleyWeight(len(p.Items)-1, 1, nAttrs) / prod
		for j, alpha := range p.Items {
			dJ, ok := parentDivergence(parents[j], divs)
			if !ok {
				continue
			}
			out[alpha] += w * (dP - dJ)
		}
	}
	return out
}

// GlobalDivergenceOf computes Δ̃^g(I, s) for an arbitrary frequent
// itemset I (Eq. 8 in full generality). For single items it agrees with
// GlobalDivergence.
func (r *Result) GlobalDivergenceOf(is fpm.Itemset, m Metric) (float64, error) {
	if len(is) == 0 {
		return 0, fmt.Errorf("core: global divergence of the empty itemset")
	}
	if _, ok := r.Lookup(is); !ok {
		return 0, fmt.Errorf("core: itemset %s not frequent at support %v",
			r.DB.Catalog.Format(is), r.MinSup)
	}
	cat := r.DB.Catalog
	nAttrs := cat.NumAttrs()
	var sum float64
	for _, p := range r.Patterns {
		if len(p.Items) < len(is) || !p.Items.ContainsAll(is) {
			continue
		}
		j := p.Items
		for _, alpha := range is {
			j = j.Without(alpha)
		}
		pj, ok := r.Lookup(j)
		if !ok {
			continue
		}
		prod := 1.0
		for _, it := range p.Items {
			prod *= float64(cat.Cardinality(cat.Attr(it)))
		}
		w := stats.GlobalShapleyWeight(len(j), len(is), nAttrs) / prod
		sum += w * (r.DivergenceOfTally(p.Tally, m) - r.DivergenceOfTally(pj.Tally, m))
	}
	return sum, nil
}

// ItemDivergenceComparison pairs the individual and global divergence of
// an item, the two measurements contrasted in Sec. 4.4 and Figures 4, 5
// and 9.
type ItemDivergenceComparison struct {
	Item       fpm.Item
	Individual float64
	Global     float64
}

// CompareItemDivergence returns, for every frequent item, both its
// individual divergence Δ(α) and its global divergence Δ̃^g(α, s), sorted
// by decreasing global divergence.
//
// lint:hot
func (r *Result) CompareItemDivergence(m Metric) []ItemDivergenceComparison {
	global := r.globalByItem(r.divergences(m))
	out := make([]ItemDivergenceComparison, 0, len(global))
	for _, p := range r.Patterns {
		if len(p.Items) == 1 {
			out = append(out, ItemDivergenceComparison{
				Item:       p.Items[0],
				Individual: r.individual(p.Tally, m),
				Global:     global[p.Items[0]],
			})
		}
	}
	sortComparisons(out)
	return out
}

func sortComparisons(cs []ItemDivergenceComparison) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && greaterGlobal(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func greaterGlobal(a, b ItemDivergenceComparison) bool {
	ga, gb := a.Global, b.Global
	if math.IsNaN(ga) {
		ga = math.Inf(-1)
	}
	if math.IsNaN(gb) {
		gb = math.Inf(-1)
	}
	// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
	if ga != gb {
		return ga > gb
	}
	return a.Item < b.Item
}
