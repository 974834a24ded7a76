package vmm

import (
	"hawkeye/internal/content"
	"hawkeye/internal/mem"
	"hawkeye/internal/trace"
)

// Snapshot/fork support for the virtual-memory layer. ForkInto rebuilds the
// whole VMM — every address space (regions, PTE arrays, the
// present/accessed/dirty bitmaps), the reverse map, the shared-frame
// reference counts and the swap device — over an already-forked allocator
// and content store. The reverse map is shared copy-on-write; everything
// else is copied. Mutating a fork can never touch the parent (the aliasing
// tests checksum the parent around fork mutations to hold this).

// Clone returns a deep copy of the swap device, including the recycled-slot
// LIFO whose order decides future slot assignment.
func (d *SwapDevice) Clone() *SwapDevice {
	return &SwapDevice{
		base:  d.base,
		slots: d.slots,
		used:  d.used,
		free:  append([]int64(nil), d.free...),
		next:  d.next,
	}
}

// clone returns a deep copy of the region. Regions hold only fixed-size
// arrays and scalars, so a value copy is a complete deep copy.
func (r *Region) clone() *Region {
	c := *r
	return &c
}

// cloneFor returns a deep copy of the process bound to the new VMM.
func (p *Process) cloneFor(v *VMM) *Process {
	c := &Process{
		PID:        p.PID,
		Name:       p.Name,
		Dead:       p.Dead,
		vmm:        v,
		regions:    make(map[RegionIndex]*Region, len(p.regions)),
		order:      append([]RegionIndex(nil), p.order...),
		dirtyOrder: true, // rebuild the sorted cache from the cloned regions
		rss:        p.rss,
		hugeMapped: p.hugeMapped,
		Stats:      p.Stats,
	}
	// Walk the order slice, not the map: every live region appears in it
	// exactly once, and the deterministic walk keeps this loop out of
	// map-iteration order entirely.
	for _, idx := range p.order {
		r := p.regions[idx].clone()
		c.regions[idx] = r
		if idx >= 0 && idx < denseLimit {
			if n := int(idx) + 1; n > len(c.dense) {
				if n <= cap(c.dense) {
					c.dense = c.dense[:n]
				} else {
					grown := make([]*Region, n, 2*n)
					copy(grown, c.dense)
					c.dense = grown
				}
			}
			c.dense[idx] = r
		}
	}
	return c
}

// Seal freezes the reverse map so the VMM can be forked with ForkInto; the
// VMM stays fully usable, paying chunk copy-on-write for later writes. The
// per-process page tables are not sealed — they are copied (cheaply, there
// are no processes on any machine the snapshot layer accepts) by
// ForkInto's process walk.
func (v *VMM) Seal() {
	v.rmap.Seal()
}

// ForkInto returns a copy of the VMM rebuilt over the given (already
// forked) allocator and content store, and registers the copy as the new
// allocator's compaction Mover — the same wiring New performs. The copy
// shares every reverse-map chunk with v (which must be sealed) until one
// side writes it. Everything else — the refs map, processes, swap device —
// is copied; those structures are small on the quiesced machines the
// snapshot layer forks (no processes have spawned). The original VMM, its
// processes and its allocator are left untouched.
func (v *VMM) ForkInto(alloc *mem.Allocator, store *content.Store) *VMM {
	c := &VMM{
		Alloc:     alloc,
		Content:   store,
		nextPID:   v.nextPID,
		rmap:      v.rmap.Fork(),
		refs:      make(map[mem.FrameID]int32, len(v.refs)),
		ZeroFrame: v.ZeroFrame,
	}
	// Map-to-map copy: insertion order cannot affect the resulting map, so
	// the iteration order of the source is immaterial here.
	for f, n := range v.refs {
		//lint:allow determinism order-insensitive map copy
		c.refs[f] = n
	}
	for _, p := range v.procs {
		c.procs = append(c.procs, p.cloneFor(c))
	}
	if v.Swap != nil {
		c.Swap = v.Swap.Clone()
	}
	alloc.SetMover(c)
	return c
}

// RmapHeapBytes estimates the heap footprint of the reverse map.
func (v *VMM) RmapHeapBytes() int64 { return v.rmap.HeapBytes() }

// COWDirtyChunks returns the number of chunk materializations the reverse
// map has performed.
func (v *VMM) COWDirtyChunks() int64 { return v.rmap.DirtyChunks() }

// SetCOWCounter mirrors reverse-map chunk materializations into c
// (nil-safe; nil detaches).
func (v *VMM) SetCOWCounter(c *trace.Counter) { v.rmap.SetDirtyCounter(c) }
