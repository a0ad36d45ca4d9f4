package main

import (
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.5, 50}, {100, 0.9, 90}, {20, 0.5, 10}, {1000, 0.9, 900}, {101, 0.9, 91},
	} {
		got, err := percentile(seq(c.n), c.q)
		if err != nil {
			t.Fatalf("p%g of %d samples: %v", c.q*100, c.n, err)
		}
		if !near(got, c.want) {
			t.Errorf("p%g of 1..%d = %v, want %v", c.q*100, c.n, got, c.want)
		}
	}
}

// TestPercentileRefusesThinTail pins the reporting rule: a percentile
// needs ten samples beyond it, so p90 needs 100 samples and p50 needs 20.
func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {19, 0.5, false}, {20, 0.5, true}, {0, 0.5, false},
	} {
		_, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok = %v", c.q*100, c.n, err, c.ok)
		}
	}
	if _, err := percentileBeyond(seq(10), 0.9, 1); err != nil {
		t.Errorf("a lowered rule should accept p90 of 10 samples: %v", err)
	}
}

// TestQuartilesMatchPython checks against values printed by Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6}, // the exclusive method extrapolates

		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{0.5, 0.7, 0.2, 0.9, 1.1}, 0.35, 1},
	} {
		q1, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); !near(m, 2) {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); !near(m, 2.5) {
		t.Errorf("median even = %v", m)
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", base, false, "within bound"},
		{"faster", shift(0.8), false, "better"},
		{"slower", shift(1.2), false, "worse"},
		{"slower but higher is better", shift(1.2), true, "better"},
		{"small slowdown", shift(1.05), false, "within bound"},
		{"noisy", noisy, false, "unresolved"},
	} {
		if got := judge(base, c.b, c.higher, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
