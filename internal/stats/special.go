package stats

import (
	"cmp"
	"math"
	"slices"
)

// Special functions needed for exact tail probabilities: the regularized
// incomplete beta function (hence Beta and Student-t CDFs) implemented
// with the standard continued-fraction expansion (Lentz's algorithm), and
// Benjamini–Hochberg false-discovery-rate control for the many
// simultaneous itemset tests an exploration performs.

// RegIncompleteBeta returns I_x(a, b), the regularized incomplete beta
// function, for a, b > 0 and x in [0, 1]. Precision is ~1e-12 over the
// well-conditioned region; the symmetry relation I_x(a,b) = 1−I_{1−x}(b,a)
// keeps the continued fraction convergent.
func RegIncompleteBeta(a, b, x float64) float64 {
	switch {
	case !(a > 0) || !(b > 0):
		// lint:ignore libprint documented contract: panics on caller-side argument violation
		panic("stats: RegIncompleteBeta requires positive parameters")
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	lbeta := lgamma(a) + lgamma(b) - lgamma(a+b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(b*math.Log(1-x)+a*math.Log(x)-lbeta)*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-14
		fpMin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// BetaCDF returns P(X <= x) for X ~ Beta(alpha, beta).
func BetaCDF(alpha, beta, x float64) float64 {
	checkBetaParams(alpha, beta)
	return RegIncompleteBeta(alpha, beta, x)
}

// BetaQuantile returns the q-quantile of Beta(alpha, beta) by bisection
// on the CDF (monotone, so 80 iterations give ~1e-24 interval width —
// far below the CDF's own precision).
func BetaQuantile(alpha, beta, q float64) float64 {
	checkBetaParams(alpha, beta)
	if q < 0 || q > 1 {
		// lint:ignore libprint documented contract: panics on caller-side argument violation
		panic("stats: quantile fraction out of range")
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if BetaCDF(alpha, beta, mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// CredibleInterval returns the equal-tailed Bayesian credible interval of
// the posterior rate at the given level (e.g. 0.95).
func (p PosteriorRate) CredibleInterval(level float64) (lo, hi float64) {
	if level <= 0 || level >= 1 {
		// lint:ignore libprint documented contract: panics on caller-side argument violation
		panic("stats: credible level out of (0,1)")
	}
	tail := (1 - level) / 2
	a, b := p.KPos+1, p.KNeg+1
	return BetaQuantile(a, b, tail), BetaQuantile(a, b, 1-tail)
}

// TailProb returns the posterior probability that the true rate exceeds
// r: P(Z > r | data).
func (p PosteriorRate) TailProb(r float64) float64 {
	if r <= 0 {
		return 1
	}
	if r >= 1 {
		return 0
	}
	return 1 - BetaCDF(p.KPos+1, p.KNeg+1, r)
}

// StudentTCDF returns P(T <= t) for a Student-t variable with df degrees
// of freedom, via the incomplete beta identity.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		// lint:ignore libprint documented contract: panics on caller-side argument violation
		panic("stats: non-positive degrees of freedom")
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncompleteBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TwoSidedTPValue returns the two-sided p-value of a t-statistic with df
// degrees of freedom. Pass df <= 0 or +Inf to use the normal limit.
func TwoSidedTPValue(t, df float64) float64 {
	at := math.Abs(t)
	if df <= 0 || math.IsInf(df, 1) {
		return 2 * (1 - stdNormalCDF(at))
	}
	return 2 * (1 - StudentTCDF(at, df))
}

func stdNormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// BenjaminiHochberg applies FDR control at level q to a slice of
// p-values and returns a mask of rejected (significant) hypotheses plus
// the adjusted p-values (monotone step-up). The input is not modified.
func BenjaminiHochberg(pvals []float64, q float64) (reject []bool, adjusted []float64) {
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
	// Sort indexes by ascending p-value, in O(n log n); the sort is
	// stable, so tied p-values keep their input order.
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(pvals[a], pvals[b]) })
	// Adjusted p-values: p_(i) * n / i, enforced monotone from the top.
	prev := 1.0
	for i := n - 1; i >= 0; i-- {
		rank := float64(i + 1)
		adj := pvals[idx[i]] * float64(n) / rank
		if adj > prev {
			adj = prev
		}
		prev = adj
		adjusted[idx[i]] = adj
	}
	// Step-up rejection: find the largest i with p_(i) <= q*i/n.
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
