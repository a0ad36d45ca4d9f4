package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegIncompleteBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		// I_x(1,1) = x (uniform CDF).
		{1, 1, 0.3, 0.3},
		{1, 1, 0.85, 0.85},
		// I_x(1,b) = 1-(1-x)^b.
		{1, 3, 0.5, 1 - 0.125},
		// I_x(a,1) = x^a.
		{4, 1, 0.5, 0.0625},
		// Symmetric case: I_0.5(a,a) = 0.5.
		{7.3, 7.3, 0.5, 0.5},
		// Binomial identity: I_0.5(3,3) = P(Bin(5,0.5) >= 3) = 0.5.
		{3, 3, 0.5, 0.5},
		// I_0.25(2,3) = P(Bin(4,0.25) >= 2) = 1 - 0.75^4 - 4*0.25*0.75^3.
		{2, 3, 0.25, 1 - math.Pow(0.75, 4) - 4*0.25*math.Pow(0.75, 3)},
	}
	for _, c := range cases {
		if got := RegIncompleteBeta(c.a, c.b, c.x); !almostEqual(got, c.want, 1e-10) {
			t.Errorf("I_%v(%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestRegIncompleteBetaBoundsAndPanics(t *testing.T) {
	if got := RegIncompleteBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v", got)
	}
	if got := RegIncompleteBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid parameters did not panic")
		}
	}()
	RegIncompleteBeta(0, 1, 0.5)
}

// Symmetry property: I_x(a,b) + I_{1-x}(b,a) = 1.
func TestRegIncompleteBetaSymmetryProperty(t *testing.T) {
	f := func(ar, br, xr uint16) bool {
		a := float64(ar%500)/10 + 0.1
		b := float64(br%500)/10 + 0.1
		x := float64(xr) / 65535
		lhs := RegIncompleteBeta(a, b, x) + RegIncompleteBeta(b, a, 1-x)
		return almostEqual(lhs, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Monotonicity in x.
func TestBetaCDFMonotone(t *testing.T) {
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.01 {
		v := BetaCDF(2.5, 4.5, x)
		if v < prev-1e-12 {
			t.Fatalf("CDF not monotone at x=%v", x)
		}
		prev = v
	}
}

// The CDF matches a Monte Carlo estimate.
func TestBetaCDFMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := 3.0, 5.0
	n := 200000
	count := 0
	for i := 0; i < n; i++ {
		// Sample Beta(3,5) as order statistics of gamma pairs via the
		// ratio of sums of exponentials (integer shape).
		g1 := gammaInt(rng, int(a))
		g2 := gammaInt(rng, int(b))
		if g1/(g1+g2) <= 0.4 {
			count++
		}
	}
	mc := float64(count) / float64(n)
	if got := BetaCDF(a, b, 0.4); math.Abs(got-mc) > 0.01 {
		t.Errorf("BetaCDF(3,5,0.4) = %v, Monte Carlo %v", got, mc)
	}
}

func gammaInt(rng *rand.Rand, k int) float64 {
	s := 0.0
	for i := 0; i < k; i++ {
		s -= math.Log(rng.Float64())
	}
	return s
}

func TestBetaQuantileInvertsCDF(t *testing.T) {
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		x := BetaQuantile(4, 2, q)
		if got := BetaCDF(4, 2, x); !almostEqual(got, q, 1e-9) {
			t.Errorf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
}

func TestCredibleInterval(t *testing.T) {
	p := NewPosteriorRate(30, 70)
	lo, hi := p.CredibleInterval(0.95)
	if !(lo < p.Mean() && p.Mean() < hi) {
		t.Errorf("interval [%v,%v] does not bracket the mean %v", lo, hi, p.Mean())
	}
	// Mass check: CDF(hi)-CDF(lo) = 0.95.
	mass := BetaCDF(31, 71, hi) - BetaCDF(31, 71, lo)
	if !almostEqual(mass, 0.95, 1e-6) {
		t.Errorf("interval mass = %v", mass)
	}
	// Wider level -> wider interval.
	lo99, hi99 := p.CredibleInterval(0.99)
	if lo99 > lo || hi99 < hi {
		t.Error("99% interval narrower than 95%")
	}
	defer func() {
		if recover() == nil {
			t.Error("level 1.5 did not panic")
		}
	}()
	p.CredibleInterval(1.5)
}

func TestTailProb(t *testing.T) {
	p := NewPosteriorRate(80, 20)
	if got := p.TailProb(0.5); got < 0.99 {
		t.Errorf("TailProb(0.5) = %v, want ~1 for an ~0.8 rate", got)
	}
	if got := p.TailProb(0.95); got > 0.01 {
		t.Errorf("TailProb(0.95) = %v, want ~0", got)
	}
	if p.TailProb(0) != 1 || p.TailProb(1) != 0 {
		t.Error("boundary tail probabilities wrong")
	}
}

func TestStudentTCDF(t *testing.T) {
	// Known values: t=0 -> 0.5; df=1 (Cauchy) at t=1 -> 0.75.
	if got := StudentTCDF(0, 7); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("T(0) = %v", got)
	}
	if got := StudentTCDF(1, 1); !almostEqual(got, 0.75, 1e-9) {
		t.Errorf("Cauchy CDF(1) = %v, want 0.75", got)
	}
	// Large df approaches the normal CDF.
	if got := StudentTCDF(1.96, 1e7); !almostEqual(got, stdNormalCDF(1.96), 1e-4) {
		t.Errorf("large-df t CDF = %v, normal = %v", got, stdNormalCDF(1.96))
	}
	// Symmetry.
	if got := StudentTCDF(-1.3, 5) + StudentTCDF(1.3, 5); !almostEqual(got, 1, 1e-10) {
		t.Errorf("t CDF symmetry violated: %v", got)
	}
	if StudentTCDF(math.Inf(1), 3) != 1 || StudentTCDF(math.Inf(-1), 3) != 0 {
		t.Error("infinite arguments wrong")
	}
}

func TestTwoSidedTPValue(t *testing.T) {
	// Normal limit: |t|=1.96 -> p ~ 0.05.
	if got := TwoSidedTPValue(1.96, 0); math.Abs(got-0.05) > 0.001 {
		t.Errorf("p(1.96, normal) = %v", got)
	}
	if got := TwoSidedTPValue(-1.96, 0); math.Abs(got-0.05) > 0.001 {
		t.Errorf("p(-1.96, normal) = %v", got)
	}
	// Finite df gives larger p than the normal limit.
	if TwoSidedTPValue(2, 5) <= TwoSidedTPValue(2, 0) {
		t.Error("t p-value not heavier-tailed than normal")
	}
}

func TestBenjaminiHochberg(t *testing.T) {
	pvals := []float64{0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205, 0.212, 0.216}
	reject, adjusted := BenjaminiHochberg(pvals, 0.05)
	// Step-up thresholds are i·q/n = 0.005, 0.01, 0.015, …: the largest i
	// with p_(i) below its threshold is 2 (0.039 > 0.015), so exactly the
	// first two hypotheses are rejected.
	wantReject := []bool{true, true, false, false, false, false, false, false, false, false}
	for i, w := range wantReject {
		if reject[i] != w {
			t.Errorf("reject[%d] = %v, want %v (adj=%v)", i, reject[i], w, adjusted[i])
		}
	}
	// Adjusted p-values are monotone in the sorted order and >= raw.
	for i := range pvals {
		if adjusted[i] < pvals[i]-1e-15 {
			t.Errorf("adjusted[%d] = %v below raw %v", i, adjusted[i], pvals[i])
		}
		if adjusted[i] > 1 {
			t.Errorf("adjusted[%d] = %v above 1", i, adjusted[i])
		}
	}
	// Edge cases.
	r, a := BenjaminiHochberg(nil, 0.05)
	if len(r) != 0 || len(a) != 0 {
		t.Error("empty input mishandled")
	}
}

// Rejection set grows with q.
func TestBenjaminiHochbergMonotoneInQ(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		pv := make([]float64, len(raw))
		for i, r := range raw {
			pv[i] = float64(r) / 65535
		}
		r1, _ := BenjaminiHochberg(pv, 0.01)
		r2, _ := BenjaminiHochberg(pv, 0.1)
		for i := range r1 {
			if r1[i] && !r2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// benjaminiHochbergInsertion is BenjaminiHochberg as it was before the
// stable sort replaced its insertion sort: the reference for the tie
// order.
func benjaminiHochbergInsertion(pvals []float64, q float64) (reject []bool, adjusted []float64) {
	n := len(pvals)
	reject = make([]bool, n)
	adjusted = make([]float64, n)
	if n == 0 {
		return reject, adjusted
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && pvals[idx[j]] < pvals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	prev := 1.0
	for i := n - 1; i >= 0; i-- {
		adj := pvals[idx[i]] * float64(n) / float64(i+1)
		if adj > prev {
			adj = prev
		}
		prev = adj
		adjusted[idx[i]] = adj
	}
	cut := -1
	for i := 0; i < n; i++ {
		if pvals[idx[i]] <= q*float64(i+1)/float64(n) {
			cut = i
		}
	}
	for i := 0; i <= cut; i++ {
		reject[idx[i]] = true
	}
	return reject, adjusted
}

// TestBenjaminiHochbergMatchesInsertionSort checks the stable index sort
// against the insertion sort it replaced, bit for bit, on random
// p-values drawn from a few levels so that ties are common (tie order
// decides which adjusted value each tied hypothesis gets).
func TestBenjaminiHochbergMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		levels := 1 + rng.Intn(20)
		pvals := make([]float64, n)
		for i := range pvals {
			pvals[i] = float64(rng.Intn(levels)) / float64(levels) * rng.Float64()
			if rng.Intn(3) == 0 {
				pvals[i] = float64(rng.Intn(levels)) / float64(levels)
			}
		}
		q := []float64{0.01, 0.05, 0.2, 1}[rng.Intn(4)]
		gotR, gotA := BenjaminiHochberg(pvals, q)
		wantR, wantA := benjaminiHochbergInsertion(pvals, q)
		for i := range pvals {
			if gotR[i] != wantR[i] || math.Float64bits(gotA[i]) != math.Float64bits(wantA[i]) {
				t.Fatalf("trial %d, hypothesis %d of %d: got (%v, %v), want (%v, %v)", trial, i, n, gotR[i], gotA[i], wantR[i], wantA[i])
			}
		}
	}
}
