package kernel

import "testing"

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
