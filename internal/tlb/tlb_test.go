package tlb

import (
	"slices"
	"testing"

	"hawkeye/internal/sim"
	"hawkeye/internal/trace"
)

func TestSmallWorkingSetHitsL1(t *testing.T) {
	tl := New(HaswellEP())
	// 32 pages fit in the 64-entry L1; only cold misses are acceptable.
	for pass := 0; pass < 100; pass++ {
		for p := int64(0); p < 32; p++ {
			tl.Access(1, p, false)
		}
	}
	if tl.MissRate() > 0.05 {
		t.Fatalf("miss rate %.3f for tiny working set", tl.MissRate())
	}
}

func TestLargeWorkingSetMisses(t *testing.T) {
	tl := New(HaswellEP())
	r := sim.NewRand(3)
	// 100k random pages over 10M-page footprint cannot be cached.
	for i := 0; i < 100000; i++ {
		tl.Access(1, r.Int63n(10<<20), false)
	}
	if tl.MissRate() < 0.9 {
		t.Fatalf("miss rate %.3f for huge random working set, want ≈ 1", tl.MissRate())
	}
}

func TestHugePagesExtendReach(t *testing.T) {
	r := sim.NewRand(4)
	// Footprint: 1 GB = 256 huge regions vs 262144 base pages.
	base := New(HaswellEP())
	huge := New(HaswellEP())
	for i := 0; i < 200000; i++ {
		vpn := r.Int63n(256 * PagesPerRegion)
		base.Access(1, vpn, false)
		huge.Access(1, vpn/PagesPerRegion, true)
	}
	if base.MissRate() < 0.5 {
		t.Fatalf("base miss rate %.3f, want high", base.MissRate())
	}
	// 256 regions fit in the 1024-entry L2 after the 8-entry L1 misses.
	if huge.MissRate() > 0.05 {
		t.Fatalf("huge miss rate %.3f, want ≈ 0", huge.MissRate())
	}
}

func TestL2CatchesL1Evictions(t *testing.T) {
	tl := New(HaswellEP())
	// 512 pages overflow L1 (64) but fit L2 (1024).
	for pass := 0; pass < 20; pass++ {
		for p := int64(0); p < 512; p++ {
			tl.Access(1, p, false)
		}
	}
	if tl.Misses > 600 {
		t.Fatalf("misses = %d, L2 not effective", tl.Misses)
	}
	if tl.L2Hits == 0 {
		t.Fatal("no L2 hits recorded")
	}
}

func TestProcessesDoNotAlias(t *testing.T) {
	tl := New(HaswellEP())
	tl.Access(1, 7, false)
	tl.Lookups, tl.Misses = 0, 0
	tl.Access(2, 7, false)
	if tl.Misses != 1 {
		t.Fatal("different PIDs must not share entries")
	}
}

func TestInvalidateRegion(t *testing.T) {
	tl := New(HaswellEP())
	tl.Access(1, 512+5, false) // region 1
	tl.Access(1, 3, false)     // region 0
	tl.Access(1, 1, true)      // huge entry for region 1
	tl.InvalidateRegion(1, 1)
	tl.Lookups, tl.Misses = 0, 0
	tl.Access(1, 512+5, false)
	tl.Access(1, 1, true)
	if tl.Misses != 2 {
		t.Fatalf("region entries survived invalidation: misses=%d", tl.Misses)
	}
	tl.Lookups, tl.Misses = 0, 0
	tl.Access(1, 3, false)
	if tl.Misses != 0 {
		t.Fatal("unrelated region was invalidated")
	}
}

func TestInvalidateProcess(t *testing.T) {
	tl := New(HaswellEP())
	tl.Access(1, 7, false)
	tl.Access(2, 9, false)
	tl.InvalidateProcess(1)
	tl.Lookups, tl.Misses = 0, 0
	tl.Access(1, 7, false)
	tl.Access(2, 9, false)
	if tl.Misses != 1 {
		t.Fatalf("misses = %d, want 1", tl.Misses)
	}
}

// TestInvalidateProcessRepeat holds the repeat-flush shortcut to exactness:
// each step runs on the TLB under test and on a reference whose every flush
// scans, and after each step the two must hold the same entries, LRU stamps
// and counters. Each case then checks what its sequence is about.
func TestInvalidateProcessRepeat(t *testing.T) {
	type step struct {
		flush bool // InvalidateProcess(pid) instead of Access(pid, page)
		pid   int32
		page  int64
	}
	access := func(pid int32, page int64) step { return step{pid: pid, page: page} }
	flush := func(pid int32) step { return step{flush: true, pid: pid} }
	for _, tc := range []struct {
		name  string
		steps []step
		// check runs on the TLB under test after the steps.
		check func(t *testing.T, tl *TLB, shootdowns int64)
	}{
		{
			name:  "repeat flush without fill",
			steps: []step{access(1, 7), access(1, 8), access(2, 9), flush(1), flush(1)},
			check: func(t *testing.T, tl *TLB, shootdowns int64) {
				if shootdowns != 2 {
					t.Errorf("tlb_shootdown = %d, want 2", shootdowns)
				}
				if !tl.l2.lookup(2, 9, false) {
					t.Error("pid 2's entry was flushed")
				}
			},
		},
		{
			name:  "fill between flushes",
			steps: []step{access(1, 7), flush(1), access(1, 7), flush(1)},
			check: func(t *testing.T, tl *TLB, _ int64) {
				if tl.Access(1, 7, false) != Miss {
					t.Error("the entry refilled after the first flush survived the second")
				}
			},
		},
		{
			name:  "other pid between flushes",
			steps: []step{access(1, 7), flush(2), flush(1)},
			check: func(t *testing.T, tl *TLB, _ int64) {
				if tl.Access(1, 7, false) != Miss {
					t.Error("flushing pid 1 after a flush of pid 2 kept pid 1's entry")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tl, ref := New(HaswellEP()), New(HaswellEP())
			rec := trace.NewRecorder(&sim.Clock{}, trace.Config{})
			tl.SetTrace(rec)
			for i, s := range tc.steps {
				if s.flush {
					tl.InvalidateProcess(s.pid)
					ref.flushed = false
					ref.InvalidateProcess(s.pid)
				} else {
					tl.Access(s.pid, s.page, false)
					ref.Access(s.pid, s.page, false)
				}
				for _, lv := range []struct{ got, want *setAssoc }{
					{tl.l1Base, ref.l1Base}, {tl.l1Huge, ref.l1Huge}, {tl.l2, ref.l2},
				} {
					if !slices.Equal(lv.got.keys, lv.want.keys) || !slices.Equal(lv.got.lrus, lv.want.lrus) || lv.got.tick != lv.want.tick {
						t.Fatalf("step %d: TLB state differs from the always-scanning reference", i)
					}
				}
				if tl.Lookups != ref.Lookups || tl.L1Hits != ref.L1Hits || tl.L2Hits != ref.L2Hits || tl.Misses != ref.Misses {
					t.Fatalf("step %d: counters differ from the reference", i)
				}
			}
			tc.check(t, tl, rec.Counter("tlb_shootdown").Value())
		})
	}
}

func TestWalkCyclesModel(t *testing.T) {
	tl := New(HaswellEP())
	seqBase := tl.WalkCycles(0, false, false)
	rndBase := tl.WalkCycles(1, false, false)
	if seqBase >= rndBase {
		t.Fatal("sequential walks must be cheaper than random")
	}
	if got := tl.WalkCycles(1, true, false); got >= rndBase {
		t.Fatal("huge walks must be discounted")
	}
	if got := tl.WalkCycles(1, false, true); got < 3*rndBase {
		t.Fatalf("nested walks should be ≈3.5× (%v vs %v)", got, rndBase)
	}
	// Clamping.
	if tl.WalkCycles(-1, false, false) != seqBase || tl.WalkCycles(2, false, false) != rndBase {
		t.Fatal("locality not clamped")
	}
}

func TestPMUOverhead(t *testing.T) {
	var p PMU
	if p.Overhead() != 0 {
		t.Fatal("empty PMU overhead not 0")
	}
	p.Add(30, 100)
	if got := p.Overhead(); got != 0.3 {
		t.Fatalf("overhead = %v, want 0.3", got)
	}
	p.EndWindow()
	p.Add(5, 100)
	p.EndWindow()
	if got := p.RecentOverhead(); got != 0.05 {
		t.Fatalf("recent overhead = %v, want 0.05", got)
	}
	if got := p.Overhead(); got != 35.0/200.0 {
		t.Fatalf("cumulative = %v", got)
	}
}

func TestPMURecentBeforeWindow(t *testing.T) {
	var p PMU
	p.Add(10, 100)
	if p.RecentOverhead() != 0.1 {
		t.Fatal("RecentOverhead should fall back to cumulative")
	}
}

func TestSetAssocDegenerate(t *testing.T) {
	// Fully-associative tiny array must still work.
	s := newSetAssoc(8, 8)
	for i := int64(0); i < 16; i++ {
		s.insert(1, i, true)
	}
	hits := 0
	for i := int64(8); i < 16; i++ {
		if s.lookup(1, i, true) {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("LRU retention wrong: %d hits, want 8", hits)
	}
}
