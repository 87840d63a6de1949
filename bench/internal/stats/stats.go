// Package stats holds the order statistics the benchmark reports: the
// median, the quartiles (computed exactly as Python's
// statistics.quantiles(values, n=4) computes them, so spreads printed
// here match the ones a reviewer recomputes), interpolated percentiles,
// and the highest percentile a sample supports.
package stats

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (NaN for an empty sample).
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, the median and the third
// quartile of xs using the "exclusive" method of Python's
// statistics.quantiles(xs, n=4). A single value is its own quartiles;
// an empty sample gives NaNs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs,
// interpolating linearly between the closest ranks (NaN when empty).
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// standardPercentiles are the percentiles TailPercentile chooses from.
var standardPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// TailPercentile returns the highest standard percentile of an n-sample
// run that still has at least ten samples beyond it, so a tail latency
// is never read off a handful of points. ok is false when n < 20 (not
// even the median has ten samples above it).
func TailPercentile(n int) (p float64, ok bool) {
	for _, p := range standardPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}
