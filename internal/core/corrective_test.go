package core

import (
	"math"
	"testing"
)

// correctiveFixture plants a clear corrective structure: g=1 is strongly
// FP-divergent, but adding p=zero brings it back to the baseline.
func correctiveFixture(t testing.TB) *Result {
	t.Helper()
	var rows []rowSpec
	add := func(g, p string, nFP, nTN int) {
		for i := 0; i < nFP; i++ {
			rows = append(rows, rowSpec{[]string{g, p}, false, true})
		}
		for i := 0; i < nTN; i++ {
			rows = append(rows, rowSpec{[]string{g, p}, false, false})
		}
	}
	// Overall FPR is 35/80 = 0.4375. The (g=1, p=zero) cell sits at 0.45,
	// almost exactly the baseline, so p=zero corrects the strong
	// divergence of g=1 (0.625 − 0.4375 = 0.1875) down to 0.0125.
	add("1", "many", 16, 4) // FPR 0.8
	add("1", "zero", 9, 11) // FPR 0.45 — corrective back to baseline
	add("0", "many", 5, 15) // FPR 0.25
	add("0", "zero", 5, 15) // FPR 0.25
	db := buildClassifierDB(t, []string{"g", "p"}, rows)
	return explore(t, db, 0.01)
}

func TestCorrectiveItemsFindsPlantedCorrection(t *testing.T) {
	r := correctiveFixture(t)
	db := r.DB
	all := r.CorrectiveItems(FPR)
	if len(all) == 0 {
		t.Fatal("no corrective items found")
	}
	// The strongest correction must be p=zero applied to (g=1).
	top := all[0]
	if db.Catalog.Name(top.Item) != "p=zero" {
		t.Errorf("top corrective item = %s, want p=zero", db.Catalog.Name(top.Item))
	}
	g1 := mustItemset(t, db, "g=1")
	if !top.Base.Equal(g1) {
		t.Errorf("top corrective base = %s, want g=1", db.Catalog.Format(top.Base))
	}
	// The definition's inequality must hold for every reported pair.
	for _, c := range all {
		if math.Abs(c.ExtDiv) >= math.Abs(c.BaseDiv) {
			t.Errorf("reported non-corrective pair: |%v| >= |%v|", c.ExtDiv, c.BaseDiv)
		}
		if !almost(c.Factor, math.Abs(c.BaseDiv)-math.Abs(c.ExtDiv), 1e-12) {
			t.Errorf("factor %v inconsistent with divergences", c.Factor)
		}
		if c.T < 0 {
			t.Errorf("negative t statistic %v", c.T)
		}
	}
	// Sorted by decreasing factor.
	for i := 1; i < len(all); i++ {
		if all[i].Factor > all[i-1].Factor+1e-15 {
			t.Errorf("corrective list not sorted at %d", i)
		}
	}
}

func TestTopCorrectiveFiltersAndLimits(t *testing.T) {
	r := correctiveFixture(t)
	all := r.CorrectiveItems(FPR)
	top1 := r.TopCorrective(FPR, 1, 0)
	if len(top1) != 1 || !top1[0].Base.Equal(all[0].Base) || top1[0].Item != all[0].Item {
		t.Errorf("TopCorrective(1, 0) = %v", top1)
	}
	// An absurd t threshold filters everything.
	none := r.TopCorrective(FPR, 10, 1e9)
	if len(none) != 0 {
		t.Errorf("TopCorrective with huge minT returned %d entries", len(none))
	}
}

// Every corrective pair is recomputable from first principles on a random
// database, and no qualifying pair is missed (exhaustiveness — the
// capability Slice Finder's pruned search lacks, Sec. 4.2).
func TestCorrectiveItemsExhaustive(t *testing.T) {
	db := randomClassifierDB(t, 77, 3, 2, 150)
	r := explore(t, db, 0.05)
	got := map[string]bool{}
	for _, c := range r.CorrectiveItems(ErrorRate) {
		got[c.Base.Key()+"|"+string(rune(c.Item))] = true
	}
	count := 0
	for _, p := range r.Patterns {
		if len(p.Items) < 2 || math.IsNaN(ErrorRate.Rate(p.Tally)) {
			continue
		}
		extDiv := r.DivergenceOfTally(p.Tally, ErrorRate)
		for _, alpha := range p.Items {
			base := p.Items.Without(alpha)
			bp, ok := r.Lookup(base)
			if !ok || math.IsNaN(ErrorRate.Rate(bp.Tally)) {
				continue
			}
			baseDiv := r.DivergenceOfTally(bp.Tally, ErrorRate)
			if math.Abs(extDiv) < math.Abs(baseDiv) {
				count++
				if !got[base.Key()+"|"+string(rune(alpha))] {
					t.Fatalf("missed corrective pair base=%v item=%v", base, alpha)
				}
			}
		}
	}
	if count == 0 {
		t.Skip("random fixture produced no corrective pairs; adjust seed")
	}
	if len(got) != count {
		t.Errorf("reported %d pairs, first-principles scan found %d", len(got), count)
	}
}
