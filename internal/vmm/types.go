// Package vmm implements the virtual-memory layer of the simulator:
// per-process address spaces built from 2 MB-aligned regions, base and huge
// page-table entries, hardware-style access/dirty bits, copy-on-write
// sharing against a canonical zero page, promotion and demotion of huge
// pages, madvise(DONTNEED), reverse mappings, and frame migration in
// support of compaction.
package vmm

import (
	"hawkeye/internal/mem"
)

// VPN is a virtual page number (virtual address / 4 KB) within a process.
type VPN int64

// RegionIndex identifies a 2 MB-aligned virtual region (VPN >> 9).
type RegionIndex int64

// RegionOf returns the region containing a VPN.
//
//lint:allow unitsafety canonical VPN -> region helper: the geometry lives here
func RegionOf(v VPN) RegionIndex { return RegionIndex(v >> mem.HugeOrder) }

// BaseVPN returns the first VPN of a region.
//
//lint:allow unitsafety canonical region -> VPN helper: the geometry lives here
func (r RegionIndex) BaseVPN() VPN { return VPN(r) << mem.HugeOrder }

// SlotOf returns the index of a VPN within its region (0..511).
func SlotOf(v VPN) int { return int(v & (mem.HugePages - 1)) }

// Advance returns the VPN p pages past v — the sanctioned way to offset an
// address by a page count without a raw cross-unit conversion.
//
//lint:allow unitsafety canonical page-offset helper
func (v VPN) Advance(p mem.Pages) VPN { return v + VPN(p) }

// pteFlags are per-base-PTE flag bits. pteAccessed and pteDirty only appear
// in Region.hugeFlags: for base mappings those bits live in the region's
// word-granular bitmaps (see Region) so samplers scan 8 words, not 512 PTEs.
type pteFlags uint8

const (
	ptePresent  pteFlags = 1 << iota // mapping exists
	pteCOW                           // shared read-only (zero page or KSM)
	pteAccessed                      // hardware access bit (huge mappings)
	pteDirty                         // written since mapping (huge mappings)
)

// PTE is a base (4 KB) page-table entry.
type PTE struct {
	Frame mem.FrameID
	Flags pteFlags
}

// Present reports whether the entry maps a frame.
func (p PTE) Present() bool { return p.Flags&ptePresent != 0 }

// COW reports whether the entry is a read-only shared mapping.
func (p PTE) COW() bool { return p.Flags&pteCOW != 0 }

// Region is the per-2 MB bookkeeping unit: either one huge mapping or up to
// 512 base mappings. This is the granularity at which every policy in the
// paper (population maps, access bitvectors, HawkEye's access_map) operates.
type Region struct {
	Index RegionIndex

	// Huge mapping state.
	Huge      bool
	HugeFrame mem.FrameID // head of the order-9 block when Huge
	hugeFlags pteFlags    // accessed/dirty for the huge mapping

	// Base mapping state (valid when !Huge).
	PTEs      [mem.HugePages]PTE
	populated int // present base PTEs (private or COW)

	// Per-slot bitmaps over the 512 base slots. present mirrors ptePresent;
	// accessed and dirty are the authoritative hardware access/dirty bits for
	// base mappings, which makes AccessedCount, PopulatedAccessedDirty and
	// ClearAccessBits O(8) word operations (popcount/clear) instead of
	// 512-entry PTE scans. Invariant: accessed ⊆ present and dirty ⊆ present.
	present  [bitmapWords]uint64
	accessed [bitmapWords]uint64
	dirty    [bitmapWords]uint64

	// Reservation (FreeBSD-style): a pre-allocated physical huge block that
	// base faults fill in place, enabling copy-free promotion.
	Reserved      bool
	ReservedBlock mem.Block
}

// Populated reports present base pages (or 512 for a huge mapping).
func (r *Region) Populated() int {
	if r.Huge {
		return mem.HugePages
	}
	return r.populated
}

// HugeAccessed reports the access bit of a huge mapping.
func (r *Region) HugeAccessed() bool { return r.hugeFlags&pteAccessed != 0 }

// bitmapWords is the length of the per-region slot bitmaps (512 slots / 64).
const bitmapWords = mem.HugePages / 64

// bitOf locates a slot's word index and mask within a region bitmap.
func bitOf(slot int) (word int, mask uint64) {
	return slot >> 6, 1 << (uint(slot) & 63)
}

// SlotAccessed reports the hardware access bit of one base slot.
func (r *Region) SlotAccessed(slot int) bool {
	w, m := bitOf(slot)
	return r.accessed[w]&m != 0
}

// markMapped records a freshly installed base mapping: present, and accessed
// the way x86 fault handling leaves a newly faulted-in PTE.
func (r *Region) markMapped(slot int) {
	w, m := bitOf(slot)
	r.present[w] |= m
	r.accessed[w] |= m
}

// markUnmapped clears a slot's presence and its access/dirty history.
func (r *Region) markUnmapped(slot int) {
	w, m := bitOf(slot)
	r.present[w] &^= m
	r.accessed[w] &^= m
	r.dirty[w] &^= m
}

// clearSlotBitmaps resets every per-slot bitmap (promotion wiped the base
// mapping state wholesale).
func (r *Region) clearSlotBitmaps() {
	r.present = [bitmapWords]uint64{}
	r.accessed = [bitmapWords]uint64{}
	r.dirty = [bitmapWords]uint64{}
}

// mappingKind discriminates reverse-mapping entries. mapNone is the zero
// value so an all-zero mapping struct means "no entry" — the reverse map is
// a flat per-frame table, and clearing a slot is writing the zero value.
type mappingKind uint8

const (
	mapNone mappingKind = iota
	mapBase
	mapHuge
)

// mapping is one reverse-map entry: which process/region/slot references a
// frame. It is deliberately pointer-free — the reverse map is one entry per
// physical frame, and keeping it opaque to the garbage collector means the
// largest table in a machine is neither scanned by GC nor cleared word-by
// pointer-word at construction. Owners are stored as a PID plus region
// index and resolved through the VMM's PID table and the process's dense
// region table on the (rare) migration/merge paths that read entries.
type mapping struct {
	reg  RegionIndex
	pid  int32
	slot int16 // base slot, or -1 for a huge mapping
	kind mappingKind
}
