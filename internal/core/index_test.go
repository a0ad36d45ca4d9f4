package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fpm"
)

// The parent-index differential suite: every API served from the parent
// index, or by a bounded top-K selection, must return exactly what the
// full-sort references (RankAll, CorrectiveItems) and a test-local
// Without + Lookup walk of the lattice return — on fresh results and on
// results restored through Save/LoadResult.

var equivOrders = []RankOrder{ByDivergence, ByAbsDivergence, ByNegDivergence}

// equivResults mines seeded datagen.Random shapes and pairs each result
// with its persisted-and-restored twin.
func equivResults(t *testing.T) map[string]*Result {
	t.Helper()
	shapes := []struct {
		seed                 int64
		rows, attrs, maxCard int
		sup                  float64
	}{
		{2, 300, 4, 4, 0.02},
		{19, 600, 5, 3, 0.03},
		{41, 1200, 6, 4, 0.02},
	}
	if !testing.Short() {
		shapes = append(shapes, struct {
			seed                 int64
			rows, attrs, maxCard int
			sup                  float64
		}{7, 2000, 7, 3, 0.02})
	}
	out := make(map[string]*Result)
	for _, sh := range shapes {
		db := datagenDB(t, sh.seed, sh.rows, sh.attrs, sh.maxCard)
		r := explore(t, db, sh.sup)
		name := fmt.Sprintf("seed=%d rows=%d attrs=%d sup=%v", sh.seed, sh.rows, sh.attrs, sh.sup)
		out[name] = r
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := LoadResult(&buf, db)
		if err != nil {
			t.Fatal(err)
		}
		out[name+" restored"] = restored
	}
	return out
}

// TestTopKEqualsRankAllPrefix pins the bounded selection to the full sort
// under every metric, order and k, including k = 0, and NumDefined to
// the number of patterns RankAll ranks.
func TestTopKEqualsRankAllPrefix(t *testing.T) {
	for name, r := range equivResults(t) {
		for _, m := range ConfusionMetrics() {
			for _, order := range equivOrders {
				all := r.RankAll(m, order)
				if n := r.NumDefined(m); n != len(all) {
					t.Fatalf("%s %s: NumDefined %d, RankAll ranks %d", name, m.Name, n, len(all))
				}
				for _, k := range []int{0, 1, 5, 10, 100} {
					want := all[:min(k, len(all))]
					if got := r.TopK(m, k, order); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s order=%d k=%d: TopK differs from RankAll[:k]\n got %+v\nwant %+v",
							name, m.Name, order, k, got, want)
					}
				}
			}
		}
	}
}

// TestTopCorrectiveEqualsFilteredCorrectiveItems pins the bounded
// corrective selection to the full sort, minT-filtered and cut to k.
func TestTopCorrectiveEqualsFilteredCorrectiveItems(t *testing.T) {
	for name, r := range equivResults(t) {
		for _, m := range ConfusionMetrics() {
			all := r.CorrectiveItems(m)
			for _, minT := range []float64{0, 2} {
				for _, k := range []int{0, 1, 5, 10, 100} {
					want := []Corrective{}
					for _, c := range all {
						if len(want) >= k {
							break
						}
						if c.T < minT {
							continue
						}
						want = append(want, c)
					}
					if got := r.TopCorrective(m, k, minT); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s minT=%v k=%d: TopCorrective differs\n got %+v\nwant %+v",
							name, m.Name, minT, k, got, want)
					}
				}
			}
		}
	}
}

// TestGlobalDivergenceMatchesGeneralForm checks Eq. 8 from the parent
// index against the general-itemset form, which walks the lattice with
// Without + Lookup, bit for bit; and CompareItemDivergence against the
// two map APIs it summarizes.
func TestGlobalDivergenceMatchesGeneralForm(t *testing.T) {
	for name, r := range equivResults(t) {
		for _, m := range ConfusionMetrics() {
			global := r.GlobalDivergence(m)
			indiv := r.IndividualDivergence(m)
			items := r.FrequentItems()
			if len(global) != len(items) {
				t.Fatalf("%s %s: %d global entries for %d frequent items", name, m.Name, len(global), len(items))
			}
			for _, it := range items {
				want, err := r.GlobalDivergenceOf(fpm.Itemset{it}, m)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(global[it]) != math.Float64bits(want) {
					t.Fatalf("%s %s item %d: GlobalDivergence %v, GlobalDivergenceOf %v", name, m.Name, it, global[it], want)
				}
			}
			cmp := r.CompareItemDivergence(m)
			if len(cmp) != len(items) {
				t.Fatalf("%s %s: %d comparisons for %d items", name, m.Name, len(cmp), len(items))
			}
			for i, c := range cmp {
				if math.Float64bits(c.Global) != math.Float64bits(global[c.Item]) ||
					math.Float64bits(c.Individual) != math.Float64bits(indiv[c.Item]) {
					t.Fatalf("%s %s: comparison %+v disagrees with the map APIs", name, m.Name, c)
				}
				if i > 0 && greaterGlobal(c, cmp[i-1]) {
					t.Fatalf("%s %s: comparisons out of order at %d", name, m.Name, i)
				}
			}
		}
	}
}

// TestPruneAndClosedMatchLookupReference checks pruning and closed
// patterns against the rules evaluated with Without + Lookup.
func TestPruneAndClosedMatchLookupReference(t *testing.T) {
	for name, r := range equivResults(t) {
		if got, want := r.ClosedPatterns(), refClosed(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ClosedPatterns differs: %d vs reference %d patterns", name, len(got), len(want))
		}
		for _, m := range ConfusionMetrics() {
			rankings := make([][]Ranked, len(equivOrders))
			for i, order := range equivOrders {
				rankings[i] = r.RankAll(m, order)
			}
			for _, eps := range []float64{0, 0.01, 0.05} {
				var want []Pattern
				survives := make(map[string]bool)
				for _, p := range r.Patterns {
					if refSurvives(r, p, m, eps) {
						want = append(want, p)
						survives[p.Items.Key()] = true
					}
				}
				if got := r.Prune(m, eps); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s eps=%v: Prune keeps %d, reference %d", name, m.Name, eps, len(got), len(want))
				}
				if got := r.PrunedCount(m, eps); got != len(want) {
					t.Fatalf("%s %s eps=%v: PrunedCount %d, reference %d", name, m.Name, eps, got, len(want))
				}
				for i, order := range equivOrders {
					var ranked []Ranked
					for _, rk := range rankings[i] {
						if survives[rk.Items.Key()] {
							ranked = append(ranked, rk)
						}
					}
					for _, k := range []int{0, 1, 5, 10, 100} {
						want := append([]Ranked{}, ranked[:min(k, len(ranked))]...)
						if got := r.TopKPruned(m, eps, k, order); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s eps=%v order=%d k=%d: TopKPruned differs\n got %+v\nwant %+v",
								name, m.Name, eps, order, k, got, want)
						}
					}
				}
			}
		}
	}
}

// refSurvives is the pruning rule of Sec. 3.5 evaluated by looking up
// every I \ α.
func refSurvives(r *Result, p Pattern, m Metric, eps float64) bool {
	if math.IsNaN(m.Rate(p.Tally)) {
		return false
	}
	div := r.DivergenceOfTally(p.Tally, m)
	for _, alpha := range p.Items {
		var parentDiv float64
		if parent := p.Items.Without(alpha); len(parent) > 0 {
			pp, ok := r.Lookup(parent)
			if !ok {
				continue
			}
			parentDiv = r.DivergenceOfTally(pp.Tally, m)
		}
		if math.Abs(div-parentDiv) <= eps {
			return false
		}
	}
	return true
}

// refClosed finds the closed patterns by looking up every one-item
// subset of every pattern.
func refClosed(r *Result) []Pattern {
	notClosed := make(map[string]bool)
	for _, p := range r.Patterns {
		if len(p.Items) < 2 {
			continue
		}
		for _, alpha := range p.Items {
			sub := p.Items.Without(alpha)
			if sp, ok := r.Lookup(sub); ok && sp.Tally.Total() == p.Tally.Total() {
				notClosed[sub.Key()] = true
			}
		}
	}
	var out []Pattern
	for _, p := range r.Patterns {
		if notClosed[p.Items.Key()] || (len(p.Items) == 1 && p.Tally.Total() == int64(r.DB.NumRows())) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// TestParentIndexLayout checks the index directly: each entry names the
// pattern without that item, or the empty itemset for singletons.
func TestParentIndexLayout(t *testing.T) {
	for name, r := range equivResults(t) {
		rest := r.parents
		for _, p := range r.Patterns {
			for j, q := range rest[:len(p.Items)] {
				want := p.Items.Without(p.Items[j])
				switch {
				case len(want) == 0 && q != emptyParent:
					t.Fatalf("%s: singleton %v has parent %d", name, p.Items, q)
				case len(want) > 0 && (q < 0 || !r.Patterns[q].Items.Equal(want)):
					t.Fatalf("%s: parent %d of %v without item %d is not %v", name, q, p.Items, j, want)
				}
			}
			rest = rest[len(p.Items):]
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d parent entries left over", name, len(rest))
		}
	}
}

// TestTopKNonPositiveK is the regression test for k <= 0: TopCorrective
// used to return every corrective pair for k = 0, and TopK panicked on
// a negative k (reachable as `divexplorer -topk -1`).
func TestTopKNonPositiveK(t *testing.T) {
	r := explore(t, randomClassifierDB(t, 5, 4, 3, 400), 0.02)
	if len(r.CorrectiveItems(FPR)) == 0 {
		t.Fatal("fixture has no corrective pairs; the k = 0 check would be vacuous")
	}
	for _, k := range []int{0, -1, -10} {
		if got := r.TopCorrective(FPR, k, 0); len(got) != 0 {
			t.Errorf("TopCorrective(k=%d) returned %d pairs", k, len(got))
		}
		if got := r.TopK(FPR, k, ByDivergence); len(got) != 0 {
			t.Errorf("TopK(k=%d) returned %d patterns", k, len(got))
		}
		if got := r.TopKPruned(FPR, 0.01, k, ByDivergence); len(got) != 0 {
			t.Errorf("TopKPruned(k=%d) returned %d patterns", k, len(got))
		}
	}
}

// TestRankingAllocsIndependentOfResultSize is the allocation guard of the
// /analyze render: the calls below allocate a fixed number of times,
// whatever the number of mined patterns, and Lookup not at all.
func TestRankingAllocsIndependentOfResultSize(t *testing.T) {
	small := explore(t, datagenDB(t, 3, 2000, 6, 4), 0.06)
	large := explore(t, datagenDB(t, 3, 4000, 8, 4), 0.025)
	if n := small.NumPatterns(); n < 100 || n > 400 {
		t.Fatalf("small result has %d patterns, want about 200", n)
	}
	if n := large.NumPatterns(); n < 1500 || n > 3000 {
		t.Fatalf("large result has %d patterns, want about 2000", n)
	}
	calls := []struct {
		name string
		fn   func(r *Result)
	}{
		{"TopK", func(r *Result) { r.TopK(FPR, 10, ByAbsDivergence) }},
		{"CompareItemDivergence", func(r *Result) { r.CompareItemDivergence(FPR) }},
		{"TopCorrective", func(r *Result) { r.TopCorrective(FPR, 5, 2) }},
	}
	for _, c := range calls {
		a := testing.AllocsPerRun(20, func() { c.fn(small) })
		b := testing.AllocsPerRun(20, func() { c.fn(large) })
		if a != b {
			t.Errorf("%s: %v allocs on %d patterns, %v on %d", c.name, a, small.NumPatterns(), b, large.NumPatterns())
		}
	}
	is := large.Patterns[len(large.Patterns)-1].Items
	if a := testing.AllocsPerRun(100, func() { large.Lookup(is) }); a != 0 {
		t.Errorf("Lookup allocates %v times", a)
	}
}

// BenchmarkRankAnalyze is the ranking half of a cache-hit /analyze: for
// FPR and FNR, the top 10 by |Δ| with p-values, the item divergence
// comparison and the top 5 corrective items, on synthetic COMPAS mined
// to about 850 patterns.
func BenchmarkRankAnalyze(b *testing.B) {
	g := datagen.COMPAS(1)
	classes, err := ConfusionClasses(g.Truth, g.Pred)
	if err != nil {
		b.Fatal(err)
	}
	db, err := fpm.NewTxDB(g.Data, classes, NumConfusionClasses)
	if err != nil {
		b.Fatal(err)
	}
	r := explore(b, db, 0.015)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range []Metric{FPR, FNR} {
			for _, rk := range r.TopK(m, 10, ByAbsDivergence) {
				rankAnalyzeSink += r.PValue(rk.Tally, m)
			}
			rankAnalyzeSink += float64(len(r.CompareItemDivergence(m)) + len(r.TopCorrective(m, 5, 2.0)))
		}
	}
	b.ReportMetric(float64(r.NumPatterns()), "patterns")
}

// rankAnalyzeSink keeps BenchmarkRankAnalyze's results live.
var rankAnalyzeSink float64
