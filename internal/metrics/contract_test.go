package metrics

import "testing"

// TestQuantileEdges pins the quantile contract at its boundaries.
func TestQuantileEdges(t *testing.T) {
	// q = 0 and q = 1 on a multi-bucket histogram.
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(3) // bucket [2,4)
	}
	h.Observe(1000) // bucket [512,1024)
	if q := h.Quantile(0); q < 3 || q > 4 {
		t.Errorf("q=0 = %v, want the first bucket's bound (<= 4)", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Errorf("q=1 = %v, want max 1000", q)
	}
	// Out-of-range q clamps rather than misindexing.
	if q := h.Quantile(-0.5); q != h.Quantile(0) {
		t.Errorf("q<0 = %v, want same as q=0", q)
	}
	if q := h.Quantile(2); q != h.Quantile(1) {
		t.Errorf("q>1 = %v, want same as q=1", q)
	}

	// Single-bucket histogram: every quantile reports that bucket.
	var one Histogram
	one.Observe(5) // bucket [4,8)
	for _, q := range []float64{0, 0.5, 1} {
		if got := one.Quantile(q); got != 5 {
			// Max (5) is below the bucket top (8), so the cap applies.
			t.Errorf("single-bucket Quantile(%v) = %v, want 5 (capped at max)", q, got)
		}
	}

	// Max below the bucket top caps the reported bound: 300 observations of
	// 600 live in [512,1024), but no observation exceeds 600.
	var cap600 Histogram
	for i := 0; i < 300; i++ {
		cap600.Observe(600)
	}
	if q := cap600.Quantile(0.99); q != 600 {
		t.Errorf("p99 = %v, want capped at max 600 (< bucket top 1024)", q)
	}
}
