package vmm

import (
	"math/bits"

	"hawkeye/internal/mem"
)

// Access-bit plumbing. The "hardware" sets per-slot access bits when
// workloads touch pages; OS samplers (HawkEye's access-coverage sampler,
// Ingens' utilization tracker) clear and re-read them periodically. For base
// mappings the bits live in the region's word-granular bitmaps, so setting
// one is a single OR and scanning a region is eight popcounts.

// TouchResult describes what a memory access encountered.
type TouchResult int

// Touch outcomes.
const (
	TouchOK    TouchResult = iota // mapping present, bits updated
	TouchFault                    // no mapping: page fault needed
	TouchCOW                      // write hit a COW mapping: COW fault needed
)

// Access performs the MMU side of one load/store at vpn: it sets access and
// dirty bits and updates modelled page contents on writes. It does not
// resolve faults; callers route TouchFault/TouchCOW to the fault handler.
func (v *VMM) Access(p *Process, vpn VPN, write bool) TouchResult {
	r := p.region(RegionOf(vpn))
	if r == nil {
		return TouchFault
	}
	slot := SlotOf(vpn)
	if r.Huge {
		r.hugeFlags |= pteAccessed
		if write {
			r.hugeFlags |= pteDirty
			frame := r.HugeFrame + mem.FrameID(slot)
			v.Content.Write(frame)
			v.Alloc.MarkDirty(frame)
		}
		return TouchOK
	}
	e := &r.PTEs[slot]
	if !e.Present() {
		return TouchFault
	}
	if write && e.COW() {
		return TouchCOW
	}
	w, m := bitOf(slot)
	r.accessed[w] |= m
	if write {
		r.dirty[w] |= m
		v.Content.Write(e.Frame)
		v.Alloc.MarkDirty(e.Frame)
	}
	return TouchOK
}

// AccessShared is Access for writes of logically shared data (same key ⇒
// identical page content, KSM-mergeable). Reads behave exactly like Access.
func (v *VMM) AccessShared(p *Process, vpn VPN, key uint64) TouchResult {
	r := p.region(RegionOf(vpn))
	if r == nil {
		return TouchFault
	}
	slot := SlotOf(vpn)
	if r.Huge {
		r.hugeFlags |= pteAccessed | pteDirty
		frame := r.HugeFrame + mem.FrameID(slot)
		v.Content.WriteShared(frame, key)
		v.Alloc.MarkDirty(frame)
		return TouchOK
	}
	e := &r.PTEs[slot]
	if !e.Present() {
		return TouchFault
	}
	if e.COW() {
		return TouchCOW
	}
	w, m := bitOf(slot)
	r.accessed[w] |= m
	r.dirty[w] |= m
	v.Content.WriteShared(e.Frame, key)
	v.Alloc.MarkDirty(e.Frame)
	return TouchOK
}

// ClearAccessBits clears the hardware access bits of a region (sampler
// epoch start).
func (r *Region) ClearAccessBits() {
	if r.Huge {
		r.hugeFlags &^= pteAccessed
		return
	}
	r.accessed = [bitmapWords]uint64{}
}

// AccessedCount reports how many base-page-sized units were accessed since
// the bits were last cleared. For a huge mapping the hardware only exposes
// one bit, so the answer is all-or-nothing — exactly the limitation HawkEye
// works around by sampling before promotion.
func (r *Region) AccessedCount() int {
	if r.Huge {
		if r.hugeFlags&pteAccessed != 0 {
			return mem.HugePages
		}
		return 0
	}
	n := 0
	for _, w := range r.accessed {
		n += bits.OnesCount64(w)
	}
	return n
}

// PopulatedAccessedDirty summarizes a region for policy decisions.
func (r *Region) PopulatedAccessedDirty() (populated, accessed, dirty int) {
	if r.Huge {
		populated = mem.HugePages
		if r.hugeFlags&pteAccessed != 0 {
			accessed = mem.HugePages
		}
		if r.hugeFlags&pteDirty != 0 {
			dirty = mem.HugePages
		}
		return
	}
	for i := range r.present {
		populated += bits.OnesCount64(r.present[i])
		accessed += bits.OnesCount64(r.accessed[i])
		dirty += bits.OnesCount64(r.dirty[i])
	}
	return
}

// ClearAccessBit clears one base slot's access bit — the "second chance"
// step of a clock-style reclaim scan.
func (r *Region) ClearAccessBit(slot int) {
	w, m := bitOf(slot)
	r.accessed[w] &^= m
}

// ColdPresentWord returns present-but-not-accessed slots of one bitmap word
// as a bit mask — the eviction candidates of a clock sweep. Word w covers
// slots [64w, 64w+64).
func (r *Region) ColdPresentWord(w int) uint64 {
	return r.present[w] &^ r.accessed[w]
}

// ClearAccessWord clears the access bits of one bitmap word — the bulk
// "second chance" a clock sweep gives a word's worth of hot pages.
func (r *Region) ClearAccessWord(w int) { r.accessed[w] = 0 }

// BitmapWords is the number of 64-slot words in the per-region bitmaps.
const BitmapWords = bitmapWords
