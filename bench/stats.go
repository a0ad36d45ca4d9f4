package main

import (
	"fmt"
	"math"
	"sort"
)

// beyondMin is how many samples must lie beyond a reported percentile:
// a p90 needs at least 100 samples, a p50 at least 20.
const beyondMin = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule. It refuses a quantile with fewer than beyondMin
// samples beyond it, so a p90 never rests on fewer than 100 samples.
func percentile(xs []float64, q float64) (float64, error) {
	return percentileBeyond(xs, q, beyondMin)
}

// percentileBeyond is percentile with the required number of samples
// beyond the quantile given; only the smoke test's tiny scale lowers it.
func percentileBeyond(xs []float64, q float64, beyond int) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < beyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			q*100, beyond, n-rank, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the ones recomputed in Python. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", ld)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3), nil
}
