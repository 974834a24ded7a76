package mem

import (
	"hawkeye/internal/trace"
)

// Snapshot/fork support for the allocator: Seal freezes the tables in
// O(#chunks), after which Fork produces copies that share every chunk until
// one side writes it. The trace recorder and the compaction Mover are NOT
// carried over (both reference the machine the allocator belongs to); the
// caller re-attaches them with SetTrace and SetMover on the new machine.

// Seal freezes every per-frame table so the allocator can be forked. The
// allocator stays fully usable; its later writes copy the chunks they
// touch.
func (a *Allocator) Seal() {
	a.frames.Seal()
	a.next.Seal()
	a.prev.Seal()
	a.zeroBits.Seal()
	a.fileLIFO.Seal()
}

// Fork returns a copy-on-write copy of a sealed allocator: all five
// tables share every chunk with a until one side writes it. Scalar state
// (free-list heads, counts, watermarks, statistics) is copied by value.
func (a *Allocator) Fork() *Allocator {
	return &Allocator{
		heads:  a.heads,
		counts: a.counts,

		frames:   a.frames.Fork(),
		next:     a.next.Fork(),
		prev:     a.prev.Fork(),
		zeroBits: a.zeroBits.Fork(),
		fileLIFO: a.fileLIFO.Fork(),

		totalPages:    a.totalPages,
		freePages:     a.freePages,
		zeroFreePages: a.zeroFreePages,
		peakAllocated: a.peakAllocated,
		tagPages:      a.tagPages,

		lifoLen: a.lifoLen,

		ReclaimedPages:  a.ReclaimedPages,
		CompactedBlocks: a.CompactedBlocks,
		MovedFrames:     a.MovedFrames,
		FailedMoves:     a.FailedMoves,
	}
}

// HeapBytes estimates the heap footprint of the allocator's tables.
func (a *Allocator) HeapBytes() int64 {
	return a.frames.HeapBytes() + a.next.HeapBytes() + a.prev.HeapBytes() +
		a.zeroBits.HeapBytes() + a.fileLIFO.HeapBytes()
}

// COWDirtyChunks returns the number of chunk materializations the
// allocator's tables have performed.
func (a *Allocator) COWDirtyChunks() int64 {
	return a.frames.DirtyChunks() + a.next.DirtyChunks() + a.prev.DirtyChunks() +
		a.zeroBits.DirtyChunks() + a.fileLIFO.DirtyChunks()
}

// SetCOWCounter mirrors chunk materializations in every table into c
// (nil-safe; nil detaches).
func (a *Allocator) SetCOWCounter(c *trace.Counter) {
	a.frames.SetDirtyCounter(c)
	a.next.SetDirtyCounter(c)
	a.prev.SetDirtyCounter(c)
	a.zeroBits.SetDirtyCounter(c)
	a.fileLIFO.SetDirtyCounter(c)
}
