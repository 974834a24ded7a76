package kernel

import (
	"testing"

	"hawkeye/internal/mem"
	"hawkeye/internal/trace"
	"hawkeye/internal/vmm"
)

// BenchmarkTouchRun measures the batched dwell path end to end: one resolved
// probe on a settled mapping, the closed-form repeat accounting, and the
// TLB charge via AccessRun — the per-run body of steadyRunBatched.
func BenchmarkTouchRun(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 256 << 20
	k := New(cfg, nil)
	p := k.Spawn("bench", nil)
	const pages = 4 * mem.HugePages
	for v := vmm.VPN(0); v < pages; v++ {
		if _, err := k.Touch(p, v, false); err != nil {
			b.Fatal(err)
		}
	}
	prof := AccessProfile{Locality: 1, CyclesPerAccess: 250}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := AccessRun{Start: vmm.VPN(i & (pages - 1)), Count: 64}
		if _, err := k.TouchRun(p, run, &prof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTouchRunTraced is BenchmarkTouchRun with the tracing subsystem
// enabled, bounding the observability overhead on the hottest batched path.
// The settled TouchRun path carries no per-run hook, so the two should be
// within noise of each other; compare with:
//
//	go test ./internal/kernel -bench 'TouchRun(Traced)?$'
func BenchmarkTouchRunTraced(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 256 << 20
	cfg.Trace = &trace.Config{}
	k := New(cfg, nil)
	p := k.Spawn("bench", nil)
	const pages = 4 * mem.HugePages
	for v := vmm.VPN(0); v < pages; v++ {
		if _, err := k.Touch(p, v, false); err != nil {
			b.Fatal(err)
		}
	}
	prof := AccessProfile{Locality: 1, CyclesPerAccess: 250}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := AccessRun{Start: vmm.VPN(i & (pages - 1)), Count: 64}
		if _, err := k.TouchRun(p, run, &prof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotForkCOW measures the fork path: the forked machine
// shares every table chunk with the frozen image, so the op copies spines
// and scalars only — O(#chunks), no element data:
//
//	go test ./internal/kernel -bench 'SnapshotForkCOW$'
func BenchmarkSnapshotForkCOW(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 128 << 20
	warm := New(cfg, nil)
	warm.FragmentMemoryPinned(0.15, DefaultPinnedChunkFrac)
	snap := warm.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchForkSink = snap.Fork(nil, nil)
	}
}

// benchForkSink keeps forked machines observable so Fork cannot be elided.
var benchForkSink *Kernel
