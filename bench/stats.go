package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile for it to
// be reported as one.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1) and
// whether at least minBeyond samples lie above it. q = 0.5 is always
// trustworthy as a median; a tail percentile is only when ok.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s)-1-rank >= minBeyond
}

// median is the midpoint of xs, averaging the middle pair of an even count.
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

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spreads printed here match the ones a reader computes from the JSON lines.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
