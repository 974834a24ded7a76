package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"hawkeye/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for i := 0; i < 100; i++ {
		h.Observe(3) // bucket [2,4)
	}
	if h.Count() != 100 || h.Mean() != 3 || h.Max() != 3 {
		t.Fatalf("count/mean/max = %d/%v/%v", h.Count(), h.Mean(), h.Max())
	}
	if q := h.Quantile(0.5); q < 3 || q > 4 {
		t.Fatalf("p50 = %v, want within (3,4]", q)
	}
}

func TestHistogramTail(t *testing.T) {
	var h Histogram
	// 99 fast ops at ~3 µs, 1 slow at 465 µs (the huge-fault pattern).
	for i := 0; i < 99; i++ {
		h.Observe(3)
	}
	h.Observe(465)
	if p50 := h.Quantile(0.5); p50 > 4 {
		t.Fatalf("p50 = %v, want ≈ 3-4", p50)
	}
	if p995 := h.Quantile(0.995); p995 < 400 {
		t.Fatalf("p99.5 = %v, must capture the 465 outlier", p995)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	r := sim.NewRand(5)
	for i := 0; i < 10000; i++ {
		h.Observe(float64(r.Intn(100000)))
	}
	prev := 0.0
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at %v: %v < %v", q, v, prev)
		}
		prev = v
	}
	if h.Quantile(1) > h.Max()+1e-9 {
		t.Fatalf("p100 %v exceeds max %v", h.Quantile(1), h.Max())
	}
}

func TestHistogramPropertyMeanWithinRange(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		min, max := math.Inf(1), 0.0
		for _, v := range vals {
			x := float64(v)
			h.Observe(x)
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		if len(vals) == 0 {
			return h.Mean() == 0
		}
		return h.Mean() >= min-1e-9 && h.Mean() <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
