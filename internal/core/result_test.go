package core

import (
	"math"
	"testing"

	"repro/internal/fpm"
)

// fixtureDB builds a tiny dataset with a planted FPR divergence: group
// g=1 accumulates false positives while g=0 is mostly correct.
func fixtureDB(t testing.TB) *fpm.TxDB {
	t.Helper()
	var rows []rowSpec
	// g=1, h=x: 4 FP, 2 TN  -> FPR 0.667
	for i := 0; i < 4; i++ {
		rows = append(rows, rowSpec{[]string{"1", "x"}, false, true})
	}
	for i := 0; i < 2; i++ {
		rows = append(rows, rowSpec{[]string{"1", "x"}, false, false})
	}
	// g=0, h=x: 1 FP, 5 TN -> FPR 0.167
	rows = append(rows, rowSpec{[]string{"0", "x"}, false, true})
	for i := 0; i < 5; i++ {
		rows = append(rows, rowSpec{[]string{"0", "x"}, false, false})
	}
	// g=0, h=y: 4 TP, 4 FN (no FPR information)
	for i := 0; i < 4; i++ {
		rows = append(rows, rowSpec{[]string{"0", "y"}, true, true})
		rows = append(rows, rowSpec{[]string{"0", "y"}, true, false})
	}
	return buildClassifierDB(t, []string{"g", "h"}, rows)
}

func TestExploreBasics(t *testing.T) {
	db := fixtureDB(t)
	r := explore(t, db, 0.05)
	if r.NumPatterns() == 0 {
		t.Fatal("no patterns mined")
	}
	// Overall FPR: 5 FP, 7 TN -> 5/12.
	if got := r.GlobalRate(FPR); !almost(got, 5.0/12, 1e-12) {
		t.Errorf("global FPR = %v, want %v", got, 5.0/12)
	}
	// Divergence of g=1.
	g1 := mustItemset(t, db, "g=1")
	div, ok := r.Divergence(g1, FPR)
	if !ok {
		t.Fatal("g=1 not frequent")
	}
	if want := 4.0/6 - 5.0/12; !almost(div, want, 1e-12) {
		t.Errorf("Δ_FPR(g=1) = %v, want %v", div, want)
	}
	// Empty itemset divergence is 0 by definition.
	if div, ok := r.Divergence(nil, FPR); !ok || div != 0 {
		t.Errorf("Δ(∅) = %v, %v, want 0, true", div, ok)
	}
}

func TestExploreInputValidation(t *testing.T) {
	db := fixtureDB(t)
	if _, err := Explore(db, -0.1, Options{}); err == nil {
		t.Error("negative support accepted")
	}
	if _, err := Explore(db, 1.5, Options{}); err == nil {
		t.Error("support > 1 accepted")
	}
}

func TestExploreMinersAgree(t *testing.T) {
	db := fixtureDB(t)
	ra, err := Explore(db, 0.1, Options{Miner: fpm.Apriori{}})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Explore(db, 0.1, Options{Miner: fpm.FPGrowth{}})
	if err != nil {
		t.Fatal(err)
	}
	if ra.NumPatterns() != rf.NumPatterns() {
		t.Fatalf("pattern counts differ: %d vs %d", ra.NumPatterns(), rf.NumPatterns())
	}
	for _, p := range ra.Patterns {
		q, ok := rf.Lookup(p.Items)
		if !ok || q.Tally != p.Tally {
			t.Fatalf("mismatch at %v", p.Items)
		}
	}
}

func TestRateUndefinedIsNaN(t *testing.T) {
	db := fixtureDB(t)
	r := explore(t, db, 0.05)
	// h=y has only TP/FN rows: FPR undefined there.
	hy := mustItemset(t, db, "h=y", "g=0")
	p, ok := r.Lookup(hy)
	if !ok {
		t.Fatal("itemset not frequent")
	}
	if got := FPR.Rate(p.Tally); !math.IsNaN(got) {
		t.Errorf("Rate on all-⊥ itemset = %v, want NaN", got)
	}
	// The posterior remains defined (uniform prior).
	post := r.PosteriorRate(p.Tally, FPR)
	if post.Mean() != 0.5 {
		t.Errorf("posterior mean = %v, want 0.5", post.Mean())
	}
	// Describe must fail cleanly.
	if _, err := r.Describe(hy, FPR); err == nil {
		t.Error("Describe on all-⊥ itemset succeeded")
	}
}

func TestLookupMissing(t *testing.T) {
	db := fixtureDB(t)
	r := explore(t, db, 0.4) // high threshold: many itemsets infrequent
	rare := mustItemset(t, db, "g=1", "h=x")
	if _, ok := r.Lookup(rare); ok {
		t.Skip("fixture itemset unexpectedly frequent; adjust threshold")
	}
	if _, ok := r.Divergence(rare, FPR); ok {
		t.Error("Divergence reported for infrequent itemset")
	}
	if _, err := r.Describe(rare, FPR); err == nil {
		t.Error("Describe succeeded for infrequent itemset")
	}
}

func TestTopKOrdering(t *testing.T) {
	db := fixtureDB(t)
	r := explore(t, db, 0.05)
	top := r.TopK(FPR, 3, ByDivergence)
	if len(top) == 0 {
		t.Fatal("empty TopK")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Divergence > top[i-1].Divergence {
			t.Errorf("TopK not sorted: %v then %v", top[i-1].Divergence, top[i].Divergence)
		}
	}
	// The most FPR-divergent itemsets must involve g=1.
	g1 := mustItemset(t, db, "g=1")
	if !top[0].Items.ContainsAll(g1) {
		t.Errorf("top divergent itemset %v does not contain g=1",
			db.Catalog.Format(top[0].Items))
	}
	// Negative order surfaces the opposite end.
	neg := r.TopK(FPR, 1, ByNegDivergence)
	if len(neg) == 0 || neg[0].Divergence > top[0].Divergence {
		t.Log("ok") // just ensure it runs and returns the minimum first
	}
	abs := r.RankAll(FPR, ByAbsDivergence)
	for i := 1; i < len(abs); i++ {
		if math.Abs(abs[i].Divergence) > math.Abs(abs[i-1].Divergence)+1e-15 {
			t.Errorf("ByAbsDivergence not sorted at %d", i)
		}
	}
}

func TestTStatGrowsWithEvidence(t *testing.T) {
	db := fixtureDB(t)
	r := explore(t, db, 0.05)
	// Same rate, more observations -> larger t. Construct tallies directly.
	var small, large fpm.Tally
	small[ClassFP], small[ClassTN] = 8, 2
	large[ClassFP], large[ClassTN] = 80, 20
	if r.TStat(large, FPR) <= r.TStat(small, FPR) {
		t.Error("t-statistic did not grow with sample size")
	}
}

func TestIndividualDivergence(t *testing.T) {
	db := fixtureDB(t)
	r := explore(t, db, 0.05)
	ind := r.IndividualDivergence(FPR)
	g1 := mustItemset(t, db, "g=1")[0]
	g0 := mustItemset(t, db, "g=0")[0]
	if ind[g1] <= 0 {
		t.Errorf("Δ(g=1) = %v, want > 0", ind[g1])
	}
	if ind[g0] >= 0 {
		t.Errorf("Δ(g=0) = %v, want < 0", ind[g0])
	}
}

func TestFrequentItemsSortedUnique(t *testing.T) {
	db := randomClassifierDB(t, 3, 3, 3, 100)
	r := explore(t, db, 0.01)
	items := r.FrequentItems()
	for i := 1; i < len(items); i++ {
		if items[i] <= items[i-1] {
			t.Fatal("FrequentItems not strictly increasing")
		}
	}
}

// Supports and divergences reported by Result agree with direct recounts.
func TestResultConsistentWithDirectScan(t *testing.T) {
	db := randomClassifierDB(t, 11, 3, 2, 60)
	r := explore(t, db, 0.1)
	for _, p := range r.Patterns {
		direct := db.TallyOf(p.Items)
		if direct != p.Tally {
			t.Fatalf("tally mismatch on %v", p.Items)
		}
		if got, want := r.Support(p.Tally), float64(direct.Total())/float64(db.NumRows()); !almost(got, want, 1e-12) {
			t.Fatalf("support mismatch on %v", p.Items)
		}
	}
}
