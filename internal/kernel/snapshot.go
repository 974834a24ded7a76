package kernel

import (
	"fmt"

	"hawkeye/internal/content"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/tlb"
	"hawkeye/internal/trace"
	"hawkeye/internal/vmm"
)

// Snapshot is a frozen image of a machine's full simulator state: the
// buddy allocator (free lists, zero bitmap, page-cache LIFO), the content
// store (per-frame signatures and the generator's stream position), the
// virtual-memory layer (address spaces, PTE arrays, slot bitmaps, reverse
// map, shared-frame refcounts, swap device) and the TLB hierarchy, plus the
// engine RNG's exact state and the kernel's accounting scalars.
//
// Capture is a *seal*, not a copy: the machine's big per-frame tables are
// chunked copy-on-write (internal/mem/cow), so Snapshot freezes them in
// O(#chunks) and Fork builds a new machine whose tables share every chunk
// with the image until the forked machine writes it — fork cost is O(1) in
// machine size, and a mutated fork pays only for the chunks it dirties.
//
// Forks replay a machine under the repo's bit-identity contract: a policy
// run forked from a snapshot produces byte-identical tables to the same run
// on a freshly built machine (golden-enforced by
// TestCachedMatchesUncached).
//
// A Snapshot is immutable after capture. Forking only reads it, so any
// number of goroutines may Fork the same Snapshot concurrently — this is
// what makes the experiments harness's warm-up cache safe to share across
// the parallel runner's workers.
type Snapshot struct {
	cfg  Config // Engine and Trace nil'd; Fork re-applies a trace config
	rand *sim.Rand

	alloc *mem.Allocator
	store *content.Store
	vm    *vmm.VMM
	tlbs  *tlb.TLB

	slowdown    float64
	daemonTime  sim.Time
	prezeroTime sim.Time
	bloatTime   sim.Time
	promoteTime sim.Time
	swapOutTime sim.Time
	ooms        int
	swapCursor  int

	// bytes is the resident heap footprint of the image's per-frame tables,
	// computed once at capture (the image never changes afterwards). The
	// snapshot cache budgets and the snapshot_cache_bytes counter read this.
	bytes int64
}

// Snapshot captures the machine's state for later Fork calls. The machine
// must be quiescent: built on a private engine, at simulated time zero, with
// no event fired and no process spawned — i.e. after construction and any
// amount of direct state shaping (FragmentMemory, dirtying), but before Run.
// The restriction exists because the event queue holds closures that cannot
// be copied; at time zero the queue contents are exactly what New schedules
// deterministically (trace sampler, policy daemons, kcompactd), so Fork
// rebuilds them by replaying construction instead of copying them.
//
// The machine being snapshotted remains fully usable; capture seals its
// per-frame tables, so the machine's own later writes pay chunk-granular
// copy-on-write instead of mutating the frozen image.
func (k *Kernel) Snapshot() *Snapshot {
	if k.sharedEngine {
		panic("kernel: Snapshot of a machine on a shared engine")
	}
	if k.Engine.Fired() != 0 || k.Now() != 0 {
		panic(fmt.Sprintf("kernel: Snapshot after events ran (fired=%d now=%v); snapshot only quiescent machines",
			k.Engine.Fired(), k.Now()))
	}
	if len(k.procs) != 0 {
		panic("kernel: Snapshot with spawned processes")
	}
	k.Alloc.Seal()
	k.Content.Seal()
	k.VMM.Seal()
	cfg := k.Cfg
	cfg.Engine = nil
	cfg.Trace = nil
	s := &Snapshot{
		cfg:         cfg,
		rand:        k.Engine.Rand.Clone(),
		alloc:       k.Alloc.Fork(),
		store:       k.Content.Fork(),
		tlbs:        k.TLB.Clone(),
		slowdown:    k.SlowdownFactor,
		daemonTime:  k.DaemonTime,
		prezeroTime: k.PrezeroTime,
		bloatTime:   k.BloatTime,
		promoteTime: k.PromoteTime,
		swapOutTime: k.SwapOutTime,
		ooms:        k.OOMs,
		swapCursor:  k.swapCursor,
	}
	s.vm = k.VMM.ForkInto(s.alloc, s.store)
	s.bytes = s.alloc.HeapBytes() + s.store.HeapBytes() + s.vm.RmapHeapBytes()
	k.Trace.SnapshotCreate(int64(k.Alloc.AllocatedPages()), int64(k.Alloc.FreePages()))
	k.Trace.Counter("snapshot_create").Inc()
	return s
}

// Bytes reports the resident heap footprint of the image's per-frame
// tables (allocator tables, content signatures, reverse map), frozen at
// capture time. Chunks shared with the captured machine are charged in
// full — the snapshot is what keeps them alive once that machine is gone.
// Fixed-size state (TLB hierarchy, scalars) is excluded: it is KB-scale
// and independent of machine size.
func (s *Snapshot) Bytes() int64 { return s.bytes }

// Fork builds a new, independent machine from the snapshot, with the given
// policy attached and (optionally) tracing enabled. The new machine's
// per-frame tables are copy-on-write against the frozen image: fork cost is
// O(1) in machine size, and the machine copies only the chunks it writes.
//
// Fork mirrors New's construction order exactly — engine, substrates, trace
// attachment, policy attachment, kcompactd — so the forked machine's event
// sequence numbers, RNG stream position and substrate state match a freshly
// built machine that performed the same warm-up, bit for bit. pol must be a
// fresh policy instance (policy state is per-machine and is not part of the
// snapshot).
//
// Tracing on a fork starts at the fork point, like a resumed VM: events the
// warm-up would have emitted on a traced fresh machine (e.g. fragmentation-
// era watermark crossings) are not replayed. Tracing is passive, so tables
// remain byte-identical regardless.
func (s *Snapshot) Fork(pol Policy, traceCfg *trace.Config) *Kernel {
	cfg := s.cfg
	cfg.Trace = traceCfg
	eng := sim.NewEngine(cfg.Seed)
	eng.Rand = s.rand.Clone()
	alloc := s.alloc.Fork()
	store := s.store.Fork()
	vm := s.vm.ForkInto(alloc, store)
	k := &Kernel{
		Cfg:            cfg,
		Engine:         eng,
		Alloc:          alloc,
		Content:        store,
		VMM:            vm,
		TLB:            s.tlbs.Clone(),
		Rec:            sim.NewRecorder(&eng.Clock),
		Policy:         pol,
		SlowdownFactor: s.slowdown,
		DaemonTime:     s.daemonTime,
		PrezeroTime:    s.prezeroTime,
		BloatTime:      s.bloatTime,
		PromoteTime:    s.promoteTime,
		SwapOutTime:    s.swapOutTime,
		OOMs:           s.ooms,
		swapCursor:     s.swapCursor,
	}
	k.Swap = k.VMM.Swap
	if cfg.Trace != nil {
		k.attachTrace(*cfg.Trace)
	}
	k.Trace.SnapshotFork(int64(alloc.AllocatedPages()), int64(alloc.FreePages()))
	k.Trace.Counter("snapshot_fork").Inc()
	if pol != nil {
		pol.Attach(k)
	}
	k.startKcompactd()
	return k
}

// COWDirtyChunks reports how many table chunks this machine has
// materialized (copied on first write) across the allocator, content
// store and reverse map — the incremental memory cost of mutating a
// forked machine, in chunks.
func (k *Kernel) COWDirtyChunks() int64 {
	return k.Alloc.COWDirtyChunks() + k.Content.COWDirtyChunks() + k.VMM.COWDirtyChunks()
}
