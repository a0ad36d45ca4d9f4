package core

import (
	"math"
	"sort"

	"repro/internal/fpm"
	"repro/internal/stats"
)

// Corrective records that adding Item to Base reduces the absolute
// divergence (Def. 4.2): |Δ(Base ∪ Item)| < |Δ(Base)|.
type Corrective struct {
	Base     fpm.Itemset // the itemset I being corrected
	Item     fpm.Item    // the corrective item α
	BaseDiv  float64     // Δ(I)
	ExtDiv   float64     // Δ(I ∪ α)
	Factor   float64     // corrective factor |Δ(I)| − |Δ(I∪α)|
	T        float64     // Welch t between the rates of I and I∪α
	Support  float64     // support of I ∪ α
	BaseSupp float64     // support of I
}

// CorrectiveItems scans every frequent itemset extension and returns all
// corrective (base, item) pairs, sorted by decreasing corrective factor.
// This is exactly the analysis behind Table 3; it is possible only
// because the exploration is exhaustive (Sec. 4.2).
//
// Pairs where the metric is undefined on either itemset are skipped, as
// are trivial bases (the empty itemset, whose divergence is 0 and can
// never shrink in absolute value).
func (r *Result) CorrectiveItems(m Metric) []Corrective {
	var out []Corrective
	r.correctivePairs(m, func(c *Corrective, base, ext *Pattern) {
		r.finishCorrective(c, base, ext, m)
		out = append(out, *c)
	})
	sort.Slice(out, func(i, j int) bool { return correctiveBetter(&out[i], &out[j]) })
	return out
}

// TopCorrective returns the k strongest corrective pairs, optionally
// requiring a minimum Welch t between the base and extended rates so the
// reported corrections are statistically meaningful (the paper's Table 3
// reports t alongside each correction). It is CorrectiveItems filtered
// by minT and cut to k, selected in O(n log k): a pair that cannot enter
// the top k skips its Welch t. k <= 0 yields an empty result.
//
// lint:hot
func (r *Result) TopCorrective(m Metric, k int, minT float64) []Corrective {
	if k <= 0 {
		return []Corrective{}
	}
	sel := newBestK(k, len(r.parents), correctiveBetter)
	r.correctivePairs(m, func(c *Corrective, base, ext *Pattern) {
		if w := sel.weakest(); w != nil && !correctiveBetter(c, w) {
			return
		}
		r.finishCorrective(c, base, ext, m)
		if c.T < minT {
			return
		}
		sel.offer(*c)
	})
	return sel.sorted()
}

// correctivePairs calls visit for every corrective (base, item) pair, in
// pattern order and then item order, with base and extension read from
// the parent index. The pair carries its identity and divergences;
// finishCorrective fills in the rest. Pairs where the metric is
// undefined on either itemset, and trivial (empty) bases, are skipped.
func (r *Result) correctivePairs(m Metric, visit func(c *Corrective, base, ext *Pattern)) {
	divs := r.definedDivergences(m)
	var c Corrective // escapes through visit, so it is reused across pairs
	rest := r.parents
	for i := range r.Patterns {
		ext := &r.Patterns[i]
		parents := rest[:len(ext.Items)]
		rest = rest[len(ext.Items):]
		extDiv := divs[i]
		if len(ext.Items) < 2 || math.IsNaN(extDiv) {
			continue
		}
		for j, q := range parents {
			if q < 0 || math.IsNaN(divs[q]) {
				continue
			}
			base := &r.Patterns[q]
			baseDiv := divs[q]
			if math.Abs(extDiv) >= math.Abs(baseDiv) {
				continue
			}
			c = Corrective{
				Base:    base.Items,
				Item:    ext.Items[j],
				BaseDiv: baseDiv,
				ExtDiv:  extDiv,
				Factor:  math.Abs(baseDiv) - math.Abs(extDiv),
			}
			visit(&c, base, ext)
		}
	}
}

// finishCorrective fills in a pair's Welch t and supports.
func (r *Result) finishCorrective(c *Corrective, base, ext *Pattern, m Metric) {
	c.T = stats.WelchTPosterior(r.PosteriorRate(base.Tally, m), r.PosteriorRate(ext.Tally, m))
	c.Support = r.Support(ext.Tally)
	c.BaseSupp = r.Support(base.Tally)
}

// correctiveBetter is the total order of corrective pairs: factor
// descending, then base itemset, then corrective item.
func correctiveBetter(a, b *Corrective) bool {
	// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
	if a.Factor != b.Factor {
		return a.Factor > b.Factor
	}
	if !a.Base.Equal(b.Base) {
		return lessItemsets(a.Base, b.Base)
	}
	return a.Item < b.Item
}
