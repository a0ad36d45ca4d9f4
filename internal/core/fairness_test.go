package core

import (
	"math"
	"testing"

	"repro/internal/fpm"
)

func TestFairnessReportGaps(t *testing.T) {
	// Group g=1: FPR 0.8; group g=0: FPR 0.25. Known gaps.
	var rows []rowSpec
	add := func(g string, nTP, nFP, nFN, nTN int) {
		for i := 0; i < nTP; i++ {
			rows = append(rows, rowSpec{[]string{g}, true, true})
		}
		for i := 0; i < nFP; i++ {
			rows = append(rows, rowSpec{[]string{g}, false, true})
		}
		for i := 0; i < nFN; i++ {
			rows = append(rows, rowSpec{[]string{g}, true, false})
		}
		for i := 0; i < nTN; i++ {
			rows = append(rows, rowSpec{[]string{g}, false, false})
		}
	}
	add("1", 6, 8, 4, 2)  // FPR 0.8, TPR 0.6, pos rate 0.7
	add("0", 5, 5, 5, 15) // FPR 0.25, TPR 0.5, pos rate ~0.333
	db := buildClassifierDB(t, []string{"g"}, rows)
	r := explore(t, db, 0.05)
	rep, err := r.Fairness("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 2 {
		t.Fatalf("groups = %d", len(rep.Groups))
	}
	if !almost(rep.FPRGap, 0.8-0.25, 1e-12) {
		t.Errorf("FPR gap = %v, want 0.55", rep.FPRGap)
	}
	if !almost(rep.EqualOppGap, 0.6-0.5, 1e-12) {
		t.Errorf("equal opportunity gap = %v, want 0.1", rep.EqualOppGap)
	}
	if !almost(rep.StatParityGap, 0.7-1.0/3, 1e-9) {
		t.Errorf("statistical parity gap = %v", rep.StatParityGap)
	}
	// Per-group values carried through.
	for _, g := range rep.Groups {
		switch g.Value {
		case "1":
			if !almost(g.FPR, 0.8, 1e-12) || !almost(g.Support, 0.4, 1e-12) {
				t.Errorf("group 1 metrics %+v", g)
			}
		case "0":
			if !almost(g.FPR, 0.25, 1e-12) {
				t.Errorf("group 0 metrics %+v", g)
			}
		}
	}
}

func TestFairnessUndefinedMetricsAreNaN(t *testing.T) {
	// Group "pos" has only positive ground truth: FPR undefined there but
	// defined for the other group; gap must still be computable from the
	// defined groups (here: a single group -> gap 0).
	rows := []rowSpec{
		{[]string{"pos"}, true, true},
		{[]string{"pos"}, true, false},
		{[]string{"neg"}, false, true},
		{[]string{"neg"}, false, false},
		{[]string{"neg"}, false, false},
	}
	db := buildClassifierDB(t, []string{"grp"}, rows)
	r := explore(t, db, 0.05)
	rep, err := r.Fairness("grp")
	if err != nil {
		t.Fatal(err)
	}
	var posGroup GroupMetrics
	for _, g := range rep.Groups {
		if g.Value == "pos" {
			posGroup = g
		}
	}
	if !math.IsNaN(posGroup.FPR) {
		t.Errorf("FPR of all-positive group = %v, want NaN", posGroup.FPR)
	}
	if math.IsNaN(rep.FPRGap) {
		t.Error("FPR gap NaN despite one defined group")
	}
	if rep.FPRGap != 0 {
		t.Errorf("single-group FPR gap = %v, want 0", rep.FPRGap)
	}
}

func TestFairnessErrors(t *testing.T) {
	db := fixtureDB(t)
	r := explore(t, db, 0.05)
	if _, err := r.Fairness("ghost"); err == nil {
		t.Error("unknown attribute accepted")
	}
	// Generic-outcome explorations are rejected.
	classes := make([]uint8, db.NumRows())
	var codes []int32
	for r := 0; r < db.NumRows(); r++ {
		codes = append(codes, db.Row(r)...)
	}
	odb, err := fpm.NewTxDBCodes(db.Catalog, codes, classes, NumOutcomeClasses)
	if err != nil {
		t.Fatal(err)
	}
	or := explore(t, odb, 0.05)
	if _, err := or.Fairness("g"); err == nil {
		t.Error("non-confusion outcomes accepted")
	}
}
