package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method, the default of Python's statistics.quantiles(xs, n=4), so the
// spreads this benchmark reports match that reference computation. Fewer
// than two samples give the single value (or NaN) for both.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the noise
// figure a bound is checked against. Zero when the median is zero.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// pooled samples: the smallest value with at least q% of the samples at or
// below it. NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailResolved reports whether the q-th percentile of n samples has at
// least ten samples beyond it — the condition under which a tail
// percentile is reported as measured rather than as an extrapolation.
func tailResolved(n int, q float64) bool {
	rank := int(math.Ceil(q / 100 * float64(n)))
	return n-rank >= 10
}
