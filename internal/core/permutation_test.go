package core

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fpm"
	"repro/internal/permtest"
)

// plantedResult explores a reduced instance of the paper's artificial
// dataset (Sec. 4.4): false positives are planted in (a=0,b=0,c=0) and
// (a=1,b=1,c=1), everything else is null.
func plantedResult(t testing.TB) *Result {
	t.Helper()
	g := datagen.ArtificialSized(3, 2500)
	classes, err := ConfusionClasses(g.Truth, g.Pred)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fpm.NewTxDB(g.Data, classes, NumConfusionClasses)
	if err != nil {
		t.Fatal(err)
	}
	return explore(t, db, 0.05)
}

// TestPermutationTestAlignsWithRankAll pins the hypothesis-set contract:
// PermutationTest tests exactly the patterns RankAll scores (the mined
// patterns on which the metric is defined), in mining order.
func TestPermutationTestAlignsWithRankAll(t *testing.T) {
	db := randomClassifierDB(t, 31, 3, 2, 300)
	r := explore(t, db, 0.03)
	po, err := r.PermutationTest(context.Background(), FPR, permtest.Config{Permutations: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranked := r.RankAll(FPR, ByDivergence)
	if len(po.Tested) != len(ranked) {
		t.Fatalf("tested %d hypotheses, RankAll scores %d", len(po.Tested), len(ranked))
	}
	if po.Permutations != 100 || po.Exhaustive {
		t.Fatalf("outcome shape: %+v", po)
	}
	for _, s := range po.Tested {
		if s.P <= 0 || s.P > 1 || s.AdjP < s.P-1e-15 || s.AdjP > 1 {
			t.Fatalf("pattern %v: p=%v adj=%v malformed", s.Items, s.P, s.AdjP)
		}
	}
}

// TestWYPlantedEffectsSurvive is the power half of the validity story:
// on the artificial dataset the two planted divergent itemsets must
// survive Westfall–Young FWER control on the FPR metric with room to
// spare, and rank among the survivors.
func TestWYPlantedEffectsSurvive(t *testing.T) {
	r := plantedResult(t)
	sig, err := r.SignificantPatternsWY(context.Background(), FPR, 0.05, ByAbsDivergence,
		permtest.Config{Permutations: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) == 0 {
		t.Fatal("no patterns survived WY on planted-effect data")
	}
	for _, names := range [][]string{{"a=0", "b=0", "c=0"}, {"a=1", "b=1", "c=1"}} {
		is := mustItemset(t, r.DB, names...)
		found := false
		for _, s := range sig {
			if s.Items.Equal(is) {
				found = true
				if s.AdjP > 0.05 {
					t.Errorf("planted %v has adjusted p %v", names, s.AdjP)
				}
			}
		}
		if !found {
			t.Errorf("planted itemset %v not among %d WY survivors", names, len(sig))
		}
	}
	// Survivors come back in ranking order.
	for i := 1; i < len(sig); i++ {
		if rankedBetter(&sig[i].Ranked, &sig[i-1].Ranked, ByAbsDivergence) {
			t.Fatalf("survivors not in ByAbsDivergence order at %d", i)
		}
	}
}

// TestPermFDRAgreesWithAnalyticBH compares the two FDR routes on
// planted-effect data: the analytic t-approximation and the permutation
// p-values should agree on the clear calls — every planted itemset is
// rejected by both, and the permutation reject set is no wilder than a
// small superset/subset discrepancy on borderline patterns.
func TestPermFDRAgreesWithAnalyticBH(t *testing.T) {
	r := plantedResult(t)
	perm, err := r.SignificantPatternsPermFDR(context.Background(), FPR, 0.05, ByAbsDivergence,
		permtest.Config{Permutations: 400, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	analytic := r.SignificantPatterns(FPR, 0.05, ByAbsDivergence)
	if len(perm) == 0 || len(analytic) == 0 {
		t.Fatalf("degenerate reject sets: perm=%d analytic=%d", len(perm), len(analytic))
	}
	key := func(s Significant) string { return r.DB.Catalog.Format(s.Items) }
	inPerm := make(map[string]bool, len(perm))
	for _, s := range perm {
		if s.AdjP < s.P-1e-15 {
			t.Fatalf("perm-FDR adjusted p %v below raw %v", s.AdjP, s.P)
		}
		inPerm[key(s)] = true
	}
	inAnalytic := make(map[string]bool, len(analytic))
	for _, s := range analytic {
		inAnalytic[key(s)] = true
	}
	for _, names := range [][]string{{"a=0", "b=0", "c=0"}, {"a=1", "b=1", "c=1"}} {
		k := r.DB.Catalog.Format(mustItemset(t, r.DB, names...))
		if !inPerm[k] {
			t.Errorf("planted %s missing from permutation-FDR rejects", k)
		}
		if !inAnalytic[k] {
			t.Errorf("planted %s missing from analytic-BH rejects", k)
		}
	}
	// Agreement on the bulk: the symmetric difference stays a small
	// fraction of the union (borderline patterns may flip either way
	// between the analytic approximation and the resampled nulls).
	union, diff := 0, 0
	for k := range inPerm {
		union++
		if !inAnalytic[k] {
			diff++
		}
	}
	for k := range inAnalytic {
		if !inPerm[k] {
			union++
			diff++
		}
	}
	if float64(diff) > 0.25*float64(union) {
		t.Errorf("reject sets disagree on %d of %d patterns", diff, union)
	}
}

func TestPermutationTestCancellation(t *testing.T) {
	db := randomClassifierDB(t, 32, 3, 2, 200)
	r := explore(t, db, 0.03)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.PermutationTest(ctx, FPR, permtest.Config{Permutations: 5000}); err == nil {
		t.Fatal("canceled permutation test returned no error")
	}
}

func TestPermutationTestRejectsUndefinedMetric(t *testing.T) {
	db := randomClassifierDB(t, 33, 3, 2, 100)
	r := explore(t, db, 0.05)
	bad := Metric{Name: "bad", Pos: 1 << ClassFP, Neg: 1 << ClassFP}
	if _, err := r.PermutationTest(context.Background(), bad, permtest.Config{Permutations: 10}); err == nil {
		t.Fatal("overlapping metric masks accepted")
	}
}

// TestMaxEntBaselineProperties checks the independence baseline on the
// artificial dataset, where all attributes are drawn i.i.d.: observed
// supports sit close to the product model, leverage is the difference,
// and the planted outcome divergence does not masquerade as structural
// (support-level) surprise.
func TestMaxEntBaselineProperties(t *testing.T) {
	r := plantedResult(t)
	is := mustItemset(t, r.DB, "a=0", "b=0", "c=0")
	mb, err := r.MaxEntBaselineOf(is)
	if err != nil {
		t.Fatal(err)
	}
	if mb.ExpectedSupport <= 0 || mb.ExpectedSupport >= 1 {
		t.Fatalf("expected support %v out of (0,1)", mb.ExpectedSupport)
	}
	if diff := mb.Observed - mb.ExpectedSupport; diff != mb.Leverage {
		t.Fatalf("leverage %v, observed-expected %v", mb.Leverage, diff)
	}
	// Three i.i.d. fair coins: expected support ~1/8, observation within
	// sampling noise, so the binomial tail is unremarkable.
	if mb.ExpectedSupport < 0.08 || mb.ExpectedSupport > 0.17 {
		t.Errorf("independence expectation %v far from 1/8", mb.ExpectedSupport)
	}
	if mb.P < 1e-4 {
		t.Errorf("i.i.d. itemset scored structurally surprising: p=%v", mb.P)
	}
	if mb.Iterations < 1 {
		t.Errorf("IPF iterations %d", mb.Iterations)
	}

	// Error cases: empty itemset, non-frequent itemset.
	if _, err := r.MaxEntBaselineOf(fpm.Itemset{}); err == nil {
		t.Error("empty itemset accepted")
	}
	deep := mustItemset(t, r.DB, "a=0", "b=0", "c=0", "d=0", "e=0", "f=0", "g=0", "h=0", "i=0", "j=0")
	if _, err := r.MaxEntBaselineOf(deep); err == nil {
		t.Error("non-frequent itemset accepted")
	}
}
