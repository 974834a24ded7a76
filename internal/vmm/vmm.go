package vmm

import (
	"fmt"
	"sort"

	"hawkeye/internal/content"
	"hawkeye/internal/mem"
	"hawkeye/internal/mem/cow"
	"hawkeye/internal/trace"
)

// Stats aggregates per-process memory-management counters maintained by the
// VMM and the layers above it (fault handler, policies).
type Stats struct {
	BaseFaults  int64
	HugeFaults  int64
	COWFaults   int64
	Promotions  int64 // base→huge collapses
	InPlace     int64 // promotions that needed no copy (reservation was full)
	Demotions   int64 // huge→base splits
	DedupPages  int64 // base pages de-duplicated to the zero page
	BloatBroken int64 // huge pages broken by the bloat-recovery thread
	SwapOuts    int64 // pages written to the swap device
	SwapIns     int64 // pages read back from the swap device
}

// Process is one simulated address space.
type Process struct {
	PID  int
	Name string
	Dead bool

	vmm        *VMM
	regions    map[RegionIndex]*Region
	order      []RegionIndex // sorted region indices, maintained lazily
	ordered    []*Region     // cached RegionsInOrder result, rebuilt when dirty
	dirtyOrder bool

	// dense is a direct-indexed mirror of regions for indices below
	// denseLimit. Workloads place their heaps at low virtual addresses, so
	// in practice every address-stream lookup is an array load instead of
	// a map probe; exotic indices fall back to the map.
	dense []*Region

	rss        mem.Pages   // pages charged to RSS
	hugeMapped mem.Regions // current huge mappings

	Stats Stats
}

// VMM owns every address space plus the reverse mappings that let frames be
// migrated and shared.
type VMM struct {
	Alloc   *mem.Allocator
	Content *content.Store

	procs   []*Process
	nextPID int

	// rmap holds the single private owner of a frame (base frames and huge
	// block heads). Shared frames (canonical zero page, KSM pages) are
	// reference-counted in refs instead and are not movable. Frames are
	// dense small integers, so the map is a flat per-frame table (entry
	// kind mapNone = no owner) — MapBase/UnmapBase are on the fault hot
	// path and a slice index beats a hash on every operation.
	rmap *cow.Table[mapping]
	refs map[mem.FrameID]int32

	// ZeroFrame is the canonical all-zero page that COW zero mappings and
	// the dedup machinery share.
	ZeroFrame mem.FrameID

	// Swap is the optional swap device; when set, DontNeed and Exit release
	// swapped slots and the fault layer can page out/in.
	Swap *SwapDevice

	// Tracing hooks (nil when disabled); only the dedup paths emit here —
	// faults and swaps are traced by the kernel layer, which knows the cost.
	tr       *trace.Recorder
	ctrDedup *trace.Counter
}

// SetTrace attaches dedup tracing (nil detaches).
func (v *VMM) SetTrace(r *trace.Recorder) {
	v.tr = r
	v.ctrDedup = r.Counter("thp_dedup_pages")
}

// New creates a VMM over the given allocator and content store and registers
// itself as the allocator's compaction Mover.
func New(alloc *mem.Allocator, store *content.Store) *VMM {
	v := &VMM{
		Alloc:   alloc,
		Content: store,
		rmap:    cow.NewTable[mapping](int(alloc.TotalPages()), mapping{}),
		refs:    make(map[mem.FrameID]int32),
	}
	blk, err := alloc.Alloc(0, mem.PreferZero, mem.TagKernel)
	if err != nil {
		panic("vmm: cannot allocate canonical zero frame: " + err.Error())
	}
	v.ZeroFrame = blk.Head
	store.SetZero(blk.Head)
	alloc.SetMover(v)
	return v
}

// NewProcess creates an empty address space.
func (v *VMM) NewProcess(name string) *Process {
	p := &Process{
		PID:     v.nextPID,
		Name:    name,
		vmm:     v,
		regions: make(map[RegionIndex]*Region),
	}
	v.nextPID++
	v.procs = append(v.procs, p)
	return p
}

// Processes returns the live address spaces in creation order.
func (v *VMM) Processes() []*Process {
	out := make([]*Process, 0, len(v.procs))
	for _, p := range v.procs {
		if !p.Dead {
			out = append(out, p)
		}
	}
	return out
}

// RSS reports the process's resident set size in base pages.
func (p *Process) RSS() mem.Pages { return p.rss }

// RSSBytes reports RSS in bytes.
func (p *Process) RSSBytes() mem.Bytes { return p.rss.Bytes() }

// HugeMapped reports the number of live huge mappings.
func (p *Process) HugeMapped() mem.Regions { return p.hugeMapped }

// denseLimit bounds the direct-indexed region table: indices below it live
// in the dense slice (at most 8 MiB of pointers when fully grown), above it
// in the map. 2^20 regions cover 2 TiB of low virtual address space.
const denseLimit = 1 << 20

// Region returns the region with the given index, or nil.
func (p *Process) Region(idx RegionIndex) *Region { return p.region(idx) }

// region resolves an index through the dense table first. A dense slot can
// be nil (never created) and an index beyond the table's current length but
// below denseLimit is necessarily absent, because EnsureRegion grows the
// table on every create in that range.
func (p *Process) region(idx RegionIndex) *Region {
	if idx >= 0 && idx < denseLimit {
		if int64(idx) < int64(len(p.dense)) {
			return p.dense[idx]
		}
		return nil
	}
	return p.regions[idx]
}

// EnsureRegion returns the region, creating it if absent.
func (p *Process) EnsureRegion(idx RegionIndex) *Region {
	if r := p.region(idx); r != nil {
		return r
	}
	r := &Region{Index: idx}
	for i := range r.PTEs {
		r.PTEs[i].Frame = mem.NoFrame
	}
	r.HugeFrame = mem.NoFrame
	p.regions[idx] = r
	if idx >= 0 && idx < denseLimit {
		if n := int(idx) + 1; n > len(p.dense) {
			if n <= cap(p.dense) {
				p.dense = p.dense[:n]
			} else {
				grown := make([]*Region, n, 2*n)
				copy(grown, p.dense)
				p.dense = grown
			}
		}
		p.dense[idx] = r
	}
	p.order = append(p.order, idx)
	p.dirtyOrder = true
	return r
}

// RegionsInOrder returns the process's regions sorted by virtual address —
// the scan order Linux's khugepaged and Ingens use. The returned slice is
// cached on the process and reused until the region set changes; callers
// must treat it as read-only and must not hold it across region creation or
// process exit. Every daemon sweep (swap, KSM, Ingens, HawkEye) calls this,
// so rebuilding it per call dominated their cost.
func (p *Process) RegionsInOrder() []*Region {
	if p.dirtyOrder {
		sort.Slice(p.order, func(i, j int) bool { return p.order[i] < p.order[j] })
		p.ordered = p.ordered[:0]
		for _, idx := range p.order {
			p.ordered = append(p.ordered, p.regions[idx])
		}
		p.dirtyOrder = false
	}
	return p.ordered
}

// Lookup resolves a VPN to its mapping state.
func (p *Process) Lookup(vpn VPN) (pte PTE, huge bool, present bool) {
	r := p.region(RegionOf(vpn))
	if r == nil {
		return PTE{Frame: mem.NoFrame}, false, false
	}
	if r.Huge {
		return PTE{Frame: r.HugeFrame + mem.FrameID(SlotOf(vpn)), Flags: r.hugeFlags}, true, true
	}
	e := r.PTEs[SlotOf(vpn)]
	return e, false, e.Present()
}

// --- mapping primitives -------------------------------------------------

// MapBase installs a private base mapping. The frame must be allocated.
func (v *VMM) MapBase(p *Process, r *Region, slot int, frame mem.FrameID) {
	if r.Huge {
		panic("vmm: MapBase into huge region")
	}
	e := &r.PTEs[slot]
	if e.Present() {
		panic(fmt.Sprintf("vmm: MapBase over present PTE (pid %d region %d slot %d)", p.PID, r.Index, slot))
	}
	e.Frame = frame
	e.Flags = ptePresent
	r.markMapped(slot)
	r.populated++
	p.rss++
	v.rmap.Set(int(frame), mapping{reg: r.Index, pid: int32(p.PID), slot: int16(slot), kind: mapBase})
}

// MapShared installs a COW mapping of a shared frame (the canonical zero
// page or a KSM page), bumping its reference count. Shared mappings do not
// count toward RSS.
func (v *VMM) MapShared(p *Process, r *Region, slot int, frame mem.FrameID) {
	if r.Huge {
		panic("vmm: MapShared into huge region")
	}
	e := &r.PTEs[slot]
	if e.Present() {
		panic("vmm: MapShared over present PTE")
	}
	e.Frame = frame
	e.Flags = ptePresent | pteCOW
	r.markMapped(slot)
	r.populated++
	if frame != v.ZeroFrame {
		v.refs[frame]++
	}
}

// MapHuge installs a huge mapping over the region. Any previous base
// mappings must have been cleared by the caller (promotion handles this).
func (v *VMM) MapHuge(p *Process, r *Region, head mem.FrameID) {
	if r.Huge {
		panic("vmm: MapHuge over huge region")
	}
	if r.populated != 0 {
		panic("vmm: MapHuge over populated base PTEs")
	}
	r.Huge = true
	r.HugeFrame = head
	r.hugeFlags = ptePresent | pteAccessed
	p.hugeMapped++
	p.rss += mem.HugePages
	v.rmap.Set(int(head), mapping{reg: r.Index, pid: int32(p.PID), slot: -1, kind: mapHuge})
}

// UnmapBase removes a base mapping and optionally frees the frame. Shared
// frames are unref'd and freed on last drop (the zero page is never freed).
func (v *VMM) UnmapBase(p *Process, r *Region, slot int, freeFrame bool) {
	e := &r.PTEs[slot]
	if !e.Present() {
		return
	}
	frame := e.Frame
	shared := e.COW()
	e.Frame = mem.NoFrame
	e.Flags = 0
	r.markUnmapped(slot)
	r.populated--
	if shared {
		if frame != v.ZeroFrame {
			v.refs[frame]--
			if v.refs[frame] <= 0 {
				delete(v.refs, frame)
				v.Alloc.Free(frame, 0, !v.Content.Get(frame).Zero())
			}
		}
		return
	}
	p.rss--
	v.rmap.Set(int(frame), mapping{})
	if freeFrame {
		v.Alloc.Free(frame, 0, !v.Content.Get(frame).Zero())
	}
}

// UnmapHuge removes a huge mapping and optionally frees the whole block.
func (v *VMM) UnmapHuge(p *Process, r *Region, freeFrames bool) {
	if !r.Huge {
		panic("vmm: UnmapHuge on non-huge region")
	}
	head := r.HugeFrame
	r.Huge = false
	r.HugeFrame = mem.NoFrame
	r.hugeFlags = 0
	p.hugeMapped--
	p.rss -= mem.HugePages
	v.rmap.Set(int(head), mapping{})
	if freeFrames {
		dirty := false
		for i := mem.FrameID(0); i < mem.HugePages; i++ {
			if !v.Content.Get(head + i).Zero() {
				dirty = true
				break
			}
		}
		v.Alloc.Free(head, mem.HugeOrder, dirty)
	}
}

// MoveFrame implements mem.Mover: migrate a private frame during compaction.
func (v *VMM) MoveFrame(old, new mem.FrameID) bool {
	m := v.rmap.Get(int(old))
	if m.kind != mapBase {
		return false // shared, huge-mapped or untracked: pinned
	}
	v.Content.Copy(new, old)
	r := v.procs[m.pid].region(m.reg)
	e := &r.PTEs[m.slot]
	e.Frame = new
	v.rmap.Set(int(new), m)
	v.rmap.Set(int(old), mapping{})
	return true
}

// Exit tears down a process, freeing every private frame and dropping
// shared references.
func (v *VMM) Exit(p *Process) {
	if p.Dead {
		return
	}
	if v.Swap != nil {
		v.ReleaseSwapped(p, v.Swap)
	}
	// Teardown walks regions in address order, not map order: unmapping
	// pushes frames onto the buddy free lists, so the visit order decides
	// what the next allocation hands out — map order would leak wall-clock
	// randomness into the simulation.
	for _, r := range p.RegionsInOrder() {
		if r.Huge {
			v.UnmapHuge(p, r, true)
		}
		for slot := range r.PTEs {
			v.UnmapBase(p, r, slot, true)
		}
		if r.Reserved {
			v.releaseReservationLocked(r)
		}
	}
	p.regions = make(map[RegionIndex]*Region)
	p.dense = nil
	p.order = nil
	p.ordered = nil
	p.dirtyOrder = false
	p.Dead = true
}

// ConvertToShared turns a privately-mapped frame into a reference-counted
// shared (COW) frame in place — the first step of a same-page merge: the
// canonical copy's owner keeps the same frame but through a COW mapping.
// Returns false if the frame has no private base mapping.
func (v *VMM) ConvertToShared(f mem.FrameID) bool {
	m := v.rmap.Get(int(f))
	if m.kind != mapBase {
		return false
	}
	p := v.procs[m.pid]
	r, slot := p.region(m.reg), int(m.slot)
	v.UnmapBase(p, r, slot, false)
	v.MapShared(p, r, slot, f)
	return true
}

// SharedRefs reports the COW reference count of a frame (0 if private).
func (v *VMM) SharedRefs(f mem.FrameID) int32 { return v.refs[f] }
