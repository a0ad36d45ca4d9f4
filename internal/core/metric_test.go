package core

import (
	"testing"

	"repro/internal/fpm"
)

func TestConfusionClasses(t *testing.T) {
	truth := []bool{true, false, true, false}
	pred := []bool{true, true, false, false}
	classes, err := ConfusionClasses(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{ClassTP, ClassFP, ClassFN, ClassTN}
	for i, w := range want {
		if classes[i] != w {
			t.Errorf("row %d class = %d, want %d", i, classes[i], w)
		}
	}
	if _, err := ConfusionClasses(truth, pred[:2]); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestMetricCounts(t *testing.T) {
	var tally fpm.Tally
	tally[ClassTP] = 10
	tally[ClassFP] = 3
	tally[ClassFN] = 7
	tally[ClassTN] = 30

	cases := []struct {
		m            Metric
		wantP, wantN int64
	}{
		{FPR, 3, 30},
		{FNR, 7, 10},
		{ErrorRate, 10, 40},
		{Accuracy, 40, 10},
		{PPV, 10, 3},
		{TPR, 10, 7},
		{TNR, 30, 3},
		{FDR, 3, 10},
		{FOR, 7, 30},
		{PredictedPositiveRate, 13, 37},
		{TruePositiveShare, 17, 33},
	}
	for _, c := range cases {
		kp, kn := c.m.Counts(tally)
		if kp != c.wantP || kn != c.wantN {
			t.Errorf("%s.Counts = (%d,%d), want (%d,%d)", c.m.Name, kp, kn, c.wantP, c.wantN)
		}
	}
}

func TestMetricValidation(t *testing.T) {
	for _, m := range ConfusionMetrics() {
		if err := m.Validate(); err != nil {
			t.Errorf("built-in metric %s invalid: %v", m.Name, err)
		}
	}
	if err := OutcomeRate.Validate(); err != nil {
		t.Errorf("OutcomeRate invalid: %v", err)
	}
	bad := []Metric{
		{"empty-pos", 0, 1},
		{"empty-neg", 1, 0},
		{"overlap", 3, 1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("metric %s validated, want error", m.Name)
		}
	}
}

func TestMetricByName(t *testing.T) {
	m, err := MetricByName("FNR")
	if err != nil || m.Name != "FNR" {
		t.Errorf("MetricByName(FNR) = %v, %v", m, err)
	}
	if _, err := MetricByName("rate"); err != nil {
		t.Errorf("MetricByName(rate) failed: %v", err)
	}
	if _, err := MetricByName("bogus"); err == nil {
		t.Error("MetricByName(bogus) succeeded")
	}
}

// Complementary metrics mirror each other: ER + ACC rates sum to 1 on any
// tally with at least one instance, and FPR(t) = 1 - TNR(t).
func TestMetricComplements(t *testing.T) {
	db := randomClassifierDB(t, 7, 3, 2, 50)
	r := explore(t, db, 0.05)
	for _, p := range r.Patterns {
		er := ErrorRate.Rate(p.Tally)
		acc := Accuracy.Rate(p.Tally)
		if !almost(er+acc, 1, 1e-12) {
			t.Fatalf("ER+ACC = %v on %v", er+acc, p.Items)
		}
		fpr := FPR.Rate(p.Tally)
		tnr := TNR.Rate(p.Tally)
		if !isNaN(fpr) && !almost(fpr+tnr, 1, 1e-12) {
			t.Fatalf("FPR+TNR = %v on %v", fpr+tnr, p.Items)
		}
	}
}

func almost(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func isNaN(x float64) bool { return x != x }
