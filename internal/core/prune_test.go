package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fpm"
)

func TestPruneDropsRedundantPattern(t *testing.T) {
	// z is a null attribute (rows duplicated over z=0/z=1), so any pattern
	// containing a z item adds no divergence and must be pruned at any
	// eps >= 0.
	base := []rowSpec{
		{[]string{"1"}, false, true},
		{[]string{"1"}, false, true},
		{[]string{"1"}, false, false},
		{[]string{"0"}, false, true},
		{[]string{"0"}, false, false},
		{[]string{"0"}, false, false},
		{[]string{"0"}, false, false},
	}
	var rows []rowSpec
	for _, r := range base {
		for _, z := range []string{"0", "1"} {
			rows = append(rows, rowSpec{[]string{r.values[0], z}, r.truth, r.pred})
		}
	}
	db := buildClassifierDB(t, []string{"g", "z"}, rows)
	r := explore(t, db, 0.01)
	survivors := r.Prune(FPR, 0.001)
	for _, p := range survivors {
		for _, it := range p.Items {
			a := db.Catalog.Attr(it)
			if db.Catalog.AttrName(a) == "z" {
				t.Errorf("pattern %s with null item survived pruning",
					db.Catalog.Format(p.Items))
			}
		}
	}
	// g=1 is genuinely divergent and must survive a small eps.
	found := false
	g1 := mustItemset(t, db, "g=1")
	for _, p := range survivors {
		if p.Items.Equal(g1) {
			found = true
		}
	}
	if !found {
		t.Error("divergent singleton g=1 was pruned")
	}
}

func TestPruneEpsilonMonotone(t *testing.T) {
	db := randomClassifierDB(t, 13, 3, 2, 120)
	r := explore(t, db, 0.02)
	prev := math.MaxInt64
	for _, eps := range []float64{0, 0.01, 0.02, 0.05, 0.1, 0.5} {
		n := r.PrunedCount(ErrorRate, eps)
		if n > prev {
			t.Errorf("eps=%v: %d survivors > previous %d (non-monotone)", eps, n, prev)
		}
		prev = n
	}
	// eps large enough kills everything.
	if n := r.PrunedCount(ErrorRate, 2); n != 0 {
		t.Errorf("eps=2 left %d survivors, want 0", n)
	}
}

// Pruned survivors are exactly the patterns where every item contributes
// more than eps (the Sec. 3.5 rule), verified from first principles.
func TestPruneRuleProperty(t *testing.T) {
	f := func(seed uint32, epsRaw uint8) bool {
		db := randomClassifierDB(t, int64(seed), 3, 2, 60)
		r := explore(t, db, 0.05)
		eps := float64(epsRaw%20) / 100
		surviving := map[string]bool{}
		for _, p := range r.Prune(ErrorRate, eps) {
			surviving[p.Items.Key()] = true
		}
		for _, p := range r.Patterns {
			if math.IsNaN(ErrorRate.Rate(p.Tally)) {
				if surviving[p.Items.Key()] {
					return false
				}
				continue
			}
			div := r.DivergenceOfTally(p.Tally, ErrorRate)
			shouldPrune := false
			for _, alpha := range p.Items {
				parent := p.Items.Without(alpha)
				var pd float64
				if len(parent) > 0 {
					pp, ok := r.Lookup(parent)
					if !ok {
						continue
					}
					pd = r.DivergenceOfTally(pp.Tally, ErrorRate)
				}
				if math.Abs(div-pd) <= eps {
					shouldPrune = true
					break
				}
			}
			if shouldPrune == surviving[p.Items.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTopKPruned(t *testing.T) {
	r := correctiveFixture(t)
	top := r.TopKPruned(FPR, 0.02, 3, ByDivergence)
	if len(top) == 0 {
		t.Fatal("no pruned top-k")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Divergence > top[i-1].Divergence {
			t.Error("pruned top-k not sorted")
		}
	}
	// With a huge eps nothing survives.
	if got := r.TopKPruned(FPR, 5, 3, ByDivergence); len(got) != 0 {
		t.Errorf("eps=5 returned %d patterns", len(got))
	}
}

func TestMarginalContribution(t *testing.T) {
	r := correctiveFixture(t)
	db := r.DB
	is := mustItemset(t, db, "g=1", "p=zero")
	alpha, err := db.Catalog.ItemByName("p=zero")
	if err != nil {
		t.Fatal(err)
	}
	mc, ok := r.MarginalContribution(is, alpha, FPR)
	if !ok {
		t.Fatal("marginal contribution unavailable")
	}
	divExt, _ := r.Divergence(is, FPR)
	divBase, _ := r.Divergence(mustItemset(t, db, "g=1"), FPR)
	if !almost(mc, divExt-divBase, 1e-12) {
		t.Errorf("marginal = %v, want %v", mc, divExt-divBase)
	}
	// Item not in the set.
	other, err := db.Catalog.ItemByName("p=many")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.MarginalContribution(is, other, FPR); ok {
		t.Error("marginal for absent item reported")
	}
}

// Property 3.1: refining an itemset by splitting on a new attribute never
// hides divergence — some child has |Δ| at least that of the parent.
// Verified over every frequent pattern and every absent attribute whose
// children are all frequent (guaranteed here by minSup = 0).
func TestProperty31RefinementNeverHidesDivergence(t *testing.T) {
	db := randomClassifierDB(t, 101, 3, 2, 120)
	r := explore(t, db, 0)
	m := TruePositiveShare // ⊥-free so the weighted-average argument is exact
	cat := db.Catalog
	for _, p := range r.Patterns {
		if len(p.Items) == cat.NumAttrs() {
			continue
		}
		parentDiv := r.DivergenceOfTally(p.Tally, m)
		used := map[int]bool{}
		for _, it := range p.Items {
			used[cat.Attr(it)] = true
		}
		for a := 0; a < cat.NumAttrs(); a++ {
			if used[a] {
				continue
			}
			best := math.Inf(-1)
			childCount := 0
			var childSupport int64
			for v := 0; v < cat.Cardinality(a); v++ {
				child := p.Items.Union(fpm.Itemset{cat.ItemFor(a, int32(v))})
				cp, ok := r.Lookup(child)
				if !ok {
					continue
				}
				childCount++
				childSupport += cp.Tally.Total()
				if d := math.Abs(r.DivergenceOfTally(cp.Tally, m)); d > best {
					best = d
				}
			}
			// Only a complete partition supports the claim.
			if childSupport != p.Tally.Total() {
				continue
			}
			if childCount > 0 && best < math.Abs(parentDiv)-1e-9 {
				t.Fatalf("refinement of %s on attr %s hides divergence: parent %v, best child %v",
					cat.Format(p.Items), cat.AttrName(a), parentDiv, best)
			}
		}
	}
}
