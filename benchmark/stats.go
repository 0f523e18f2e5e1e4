package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method, and the number of samples it was taken over.
// Nearest rank never interpolates, so the value is always a latency
// some transaction actually had. xs is sorted in place.
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1], n
}

// median is the interpolated middle of xs (sorted in place).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the default "exclusive"
// method) — the driver judges run-to-run spread with that function, so
// -check must compute the same number. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median —
// the driver's measure of run-to-run disagreement. Below four values the
// quartiles are extrapolated beyond the data (for two values the
// distance comes out as 1.5 times their difference), so there the whole
// range stands in for them.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	m := median(s) // sorts s
	if m == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartiles(s)
	}
	return math.Abs((hi - lo) / m)
}
