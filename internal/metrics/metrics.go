// Package metrics provides the log-bucketed latency histogram the fault
// model keeps per process, with percentile queries (fault-latency tails,
// Fig. 11's "significant tail latency reduction").
package metrics

import "math"

// Histogram is a log2-bucketed histogram for positive values (latencies in
// µs, sizes in pages). Bucket i covers [2^i, 2^(i+1)); values < 1 land in
// bucket 0. Memory is constant (64 buckets) and updates are O(1).
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     float64
	max     float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	b := 0
	if v >= 1 {
		// Exponent extraction: for finite v >= 1 the unbiased IEEE 754
		// exponent is exactly floor(log2(v)), without the Log call this
		// sits under on every page fault.
		b = int(math.Float64bits(v)>>52) - 1023
		if b > 63 {
			b = 63
		}
	}
	h.buckets[b]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max reports the largest observation.
func (h *Histogram) Max() float64 { return h.max }

// Quantile reports an upper bound for the q-quantile (q in [0,1]) at
// bucket resolution: the top of the bucket containing the q-th
// observation. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			upper := math.Pow(2, float64(i+1))
			if upper > h.max && h.max > 0 {
				return h.max
			}
			return upper
		}
	}
	return h.max
}
