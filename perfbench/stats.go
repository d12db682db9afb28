package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks (numpy's default method). xs is not
// modified. An empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyondOK reports whether a percentile p of n samples leaves at least
// ten samples beyond it — the rule for reporting a tail percentile at all:
// p90 needs 100 samples, p99 needs 1000.
func beyondOK(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them with its default
// "exclusive" method, extrapolation at the edges included. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// relativeIQR is (q3 − q1) / median, the spread measure the benchmark's
// bounds are compared against.
func relativeIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
