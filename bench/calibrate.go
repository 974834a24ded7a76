package main

import (
	"runtime/debug"
	"time"
)

// Host speed on a shared machine drifts, by more than half within a
// quarter of an hour on the reference machine, and every workload slows
// with it. A timed child therefore runs a fixed calibration slice after
// each op, in proportion to the op's length, and the parent rescales the
// child's times by how fast those slices ran:
//
//	time at reference speed = measured time × calNominal / measured slice time
//
// The slices run on the simulating thread itself, between ops, so they see
// the contention its CPU sees. A reference timed in another process does
// not track it. The slices do not run beside the simulator's own work: the
// collector is idle while they run, and two untimed slices first warm the
// cache the op evicted, so their speed does not depend on the workload. The
// slice is benchmark code, so it is the same on both sides of a comparison.
//
// The slices run in groups of calGroup, and only the fastest slice of each
// group counts. A slice the scheduler interrupts reads far slower than the
// host runs, and the minimum of a group drops it; the group size is fixed,
// so the minimum's bias does not change with the op's length.
const (
	// calNominal is one slice's time on the reference machine (2-vCPU
	// Xeon at 2.1 GHz). It only fixes the scale of reported times.
	calNominal = 300 * time.Microsecond
	// calGroup is the number of slices one measurement takes the fastest
	// of. calEvery sets the slice budget: one group per calEvery of op
	// time, and at least one after each op, so calibration adds about 2 %
	// to a pass.
	calGroup = 4
	calEvery = 120 * time.Millisecond
)

var (
	calSmall        = make([]uint32, 1<<16) // 256 KiB
	calLarge        = make([]uint32, 1<<18) // 1 MiB
	calState uint64 = 88172645463325252
)

func init() {
	// Write the large table so its reads hit real pages, not the shared
	// zero page of untouched memory.
	for i := range calLarge {
		calLarge[i] = uint32(i * 2654435761)
	}
}

// calSlice runs one slice of cache-sized, branchy, allocation-free work, the
// kind of work the simulator's tables do.
func calSlice() {
	x := calState
	for i := 0; i < 40_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (1<<16 - 1)
		if calSmall[j]&1 == 0 {
			calSmall[j] += uint32(x)
		} else {
			calSmall[j] ^= calLarge[(x>>20)&(1<<18-1)]
		}
	}
	calState = x
}

// calibration is what one op's calibration measured.
type calibration struct {
	Groups  int   `json:"groups"`   // groups of calGroup timed slices
	TimedNS int64 `json:"timed_ns"` // summed time of each group's fastest slice
	TotalNS int64 `json:"total_ns"` // time of all slices, warm-up included
}

// speed is the host's speed relative to the reference machine while the
// calibration ran.
func (c calibration) speed() float64 {
	return calNominal.Seconds() * float64(c.Groups) / (float64(c.TimedNS) / 1e9)
}

// calibrate runs the slices owed for an op that took opWall.
func calibrate(opWall time.Duration) calibration {
	// Turning the collector off waits out any cycle the op started and
	// keeps a new one from starting; it does not allocate.
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	c := calibration{Groups: max(1, int(opWall/calEvery))}
	t0 := time.Now()
	calSlice()
	calSlice()
	for range c.Groups {
		fastest := time.Duration(1<<63 - 1)
		for range calGroup {
			s := time.Now()
			calSlice()
			fastest = min(fastest, time.Since(s))
		}
		c.TimedNS += fastest.Nanoseconds()
	}
	c.TotalNS = time.Since(t0).Nanoseconds()
	return c
}
