package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100, 90, true}, // sweep-cold's 100 cells leave exactly ten
		{99, 90, false}, // nine
		{180, 162, true},
		{18, 17, false}, // one pass of paper-quick
		{1, 1, false},
	} {
		v, ok := percentile(seq(tc.n), 0.9)
		if v != tc.want || ok != tc.ok {
			t.Errorf("p90 of 1..%d = %v (ok %v), want %v (ok %v)", tc.n, v, ok, tc.want, tc.ok)
		}
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.median and statistics.quantiles(xs, n=4) on 1..10 and 1..5.
	if m := median(seq(10)); m != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", m)
	}
	if q1, q3 := quartiles(seq(10)); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles(seq(5)); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; want 1.5, 4.5", q1, q3)
	}
}
