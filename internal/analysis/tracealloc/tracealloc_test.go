package tracealloc_test

import (
	"testing"

	"hawkeye/internal/analysis/analysistest"
	"hawkeye/internal/analysis/tracealloc"
)

// TestTracealloc analyzes the core testdata package; the driver loads vmm
// first as a facts-only dependency, so the vmm.Label diagnostics in core
// are visible only through the imported Allocates fact.
func TestTracealloc(t *testing.T) {
	analysistest.Run(t, "testdata", tracealloc.Analyzer,
		"hawkeye/internal/core",
	)
}

// TestTraceallocReplayHooks analyzes the workload testdata package — the
// trace-cache attach shapes of PR 8: counter handles bound once per machine
// and ticked from the replay hot loop, per-attach formatted names and
// unguarded registry derefs flagged.
func TestTraceallocReplayHooks(t *testing.T) {
	analysistest.Run(t, "testdata", tracealloc.Analyzer,
		"hawkeye/internal/workload",
	)
}

// TestTraceallocChunkMemoHooks analyzes the kernel testdata package — the
// counter shapes of a kernel hot path: handles bound once at trace attach
// behind an explicit registry guard and ticked per hit/miss/invalidate
// from the hot path stay silent; per-chunk formatted names, unguarded
// registry derefs and allocating hook arguments on the same path are
// flagged.
func TestTraceallocChunkMemoHooks(t *testing.T) {
	analysistest.Run(t, "testdata", tracealloc.Analyzer,
		"hawkeye/internal/kernel",
	)
}

// TestTraceallocCacheAttachHooks analyzes the snapshot testdata package —
// the unified cache-attach helper of the introspection PR: a nil-guarded
// helper concatenating metric names from a cache prefix is sanctioned, the
// same concatenation against a possibly-nil recorder is flagged.
func TestTraceallocCacheAttachHooks(t *testing.T) {
	analysistest.Run(t, "testdata", tracealloc.Analyzer,
		"hawkeye/internal/snapshot",
	)
}
