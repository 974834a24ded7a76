// Package kernel impersonates the counter hooks of a kernel hot path that
// tallies a per-chunk cache: the machine binds hit, miss and invalidate
// handles once at trace attach, and the hot path ticks the stored nil-safe
// handles on every outcome. The sanctioned shapes must stay silent — the
// off-path of each hook is one branch and zero allocations — and the
// tempting wrong shapes (per-chunk formatted counter names, an unguarded
// registry deref on the hot path, an allocating label in a hook argument)
// must be flagged.
package kernel

import (
	"fmt"

	"hawkeye/internal/trace"
)

// Kernel is a stand-in machine holding the counter handles bound at trace
// attach.
type Kernel struct {
	Trace        *trace.Recorder
	ctrChunkHit  *trace.Counter
	ctrChunkMiss *trace.Counter
	ctrChunkInv  *trace.Counter
}

// attachTrace is the sanctioned binding shape: the registry is proven live
// by the explicit guard, and the handles are fetched once with constant
// names — the hot path never touches the registry again.
func (k *Kernel) attachTrace() {
	if k.Trace == nil || k.Trace.Counters == nil {
		return
	}
	cs := k.Trace.Counters
	k.ctrChunkHit = cs.Counter("chunk_effect_hits")
	k.ctrChunkMiss = cs.Counter("chunk_effect_miss")
	k.ctrChunkInv = cs.Counter("chunk_effect_invalidate")
}

// chunkMemo is the sanctioned hot-path shape: one Inc on a stored nil-safe
// handle per outcome is its entire tracing cost.
func (k *Kernel) chunkMemo(hit, stale bool) {
	if stale {
		k.ctrChunkInv.Inc()
	}
	if hit {
		k.ctrChunkHit.Inc()
		return
	}
	k.ctrChunkMiss.Inc()
}

// chunkMemoFormattedName builds a per-region counter name on the miss
// path: the Sprintf runs (and allocates) even when the recorder is nil and
// tracing is off.
func (k *Kernel) chunkMemoFormattedName(region int64) {
	k.Trace.Counter(fmt.Sprintf("chunk_effect_miss_region_%d", region)).Inc() // want `allocation in Counter hook argument \(call to allocating function Sprintf\)`
}

// chunkMemoThroughRegistry ticks the hit counter through the registry on a
// possibly-nil recorder instead of a handle bound at attach time.
func (k *Kernel) chunkMemoThroughRegistry() {
	k.Trace.Counters.Counter("chunk_effect_hits").Inc() // want `k\.Trace\.Counters dereferences a possibly-nil Recorder`
}

// chunkMemoAllocatingArg charges a concatenated label through a hook
// argument: the concat allocates before the nil check inside Emit.
func (k *Kernel) chunkMemoAllocatingArg(policy string) {
	k.Trace.Emit(trace.Event{Kind: 1, Note: "chunk-memo-" + policy}) // want `allocation in Emit hook argument \(string concatenation\)`
}

var (
	_ = (*Kernel).attachTrace
	_ = (*Kernel).chunkMemo
	_ = (*Kernel).chunkMemoFormattedName
	_ = (*Kernel).chunkMemoThroughRegistry
	_ = (*Kernel).chunkMemoAllocatingArg
)
