package vmm

import (
	"fmt"

	"hawkeye/internal/mem"
)

// Swap support: base PTEs can be paged out to a swap device. A swapped PTE
// stores its swap-slot index in the Frame field with the pteSwapped flag;
// the slot preserves the page's modelled content (signature) in the content
// store's swap extension, so a page survives a swap round-trip bit-exact.

// pteSwapped marks an entry whose page lives on the swap device. A swapped
// entry is not Present; the fault path recognizes it and swaps in.
const pteSwapped pteFlags = 1 << 6

// Swapped reports whether the entry's page is on the swap device.
func (p PTE) Swapped() bool { return p.Flags&pteSwapped != 0 }

// SwapDevice manages swap slots and their content signatures. Slot i's
// content lives at content-store index base+i, an extension range past the
// physical frames.
type SwapDevice struct {
	base  mem.FrameID // first content-store index of the swap extension
	slots int64
	used  int64
	free  []int64 // LIFO of recycled slots
	next  int64   // bump cursor while no recycled slots exist
}

// NewSwapDevice creates a device with the given slot count whose contents
// are stored at [base, base+slots) in the content store.
func NewSwapDevice(base mem.FrameID, slots mem.Pages) *SwapDevice {
	return &SwapDevice{base: base, slots: int64(slots)}
}

// Used reports occupied slots.
func (d *SwapDevice) Used() mem.Pages { return mem.Pages(d.used) }

// alloc reserves a slot, returning false when the device is full.
func (d *SwapDevice) alloc() (int64, bool) {
	if n := len(d.free); n > 0 {
		s := d.free[n-1]
		d.free = d.free[:n-1]
		d.used++
		return s, true
	}
	if d.next >= d.slots {
		return 0, false
	}
	s := d.next
	d.next++
	d.used++
	return s, true
}

// release returns a slot.
func (d *SwapDevice) release(slot int64) {
	d.free = append(d.free, slot)
	d.used--
}

// SwapOutBase pages one private base mapping out to the device: the frame
// is freed, the content signature moves to the swap slot, and the PTE
// records the slot. Returns false when the PTE is not a private present
// base mapping or the device is full.
func (v *VMM) SwapOutBase(p *Process, r *Region, slot int, dev *SwapDevice) bool {
	if r.Huge {
		return false
	}
	e := r.PTEs[slot]
	if !e.Present() || e.COW() {
		return false
	}
	sw, ok := dev.alloc()
	if !ok {
		return false
	}
	frame := e.Frame
	// Preserve content in the swap extension.
	v.Content.Copy(dev.base+mem.FrameID(sw), frame)
	v.UnmapBase(p, r, slot, true)
	r.PTEs[slot] = PTE{Frame: dev.base + mem.FrameID(sw), Flags: pteSwapped}
	p.Stats.SwapOuts++
	return true
}

// SwapInBase brings a swapped page back into the given frame: the content
// returns from the slot, the slot is recycled, and a private mapping is
// installed.
func (v *VMM) SwapInBase(p *Process, r *Region, slot int, frame mem.FrameID, dev *SwapDevice) {
	e := r.PTEs[slot]
	if !e.Swapped() {
		panic(fmt.Sprintf("vmm: SwapInBase on non-swapped PTE (pid %d region %d slot %d)", p.PID, r.Index, slot))
	}
	swSlot := int64(e.Frame - dev.base)
	v.Content.Copy(frame, dev.base+mem.FrameID(swSlot))
	if v.Content.Get(frame).Zero() {
		v.Alloc.MarkZeroed(frame)
	} else {
		v.Alloc.MarkDirty(frame)
	}
	dev.release(swSlot)
	r.PTEs[slot] = PTE{Frame: mem.NoFrame}
	v.MapBase(p, r, slot, frame)
	p.Stats.SwapIns++
}

// dropSwapSlot releases a swapped PTE without reading it back (process
// exit, madvise of a swapped range).
func (v *VMM) dropSwapSlot(r *Region, slot int, dev *SwapDevice) {
	e := r.PTEs[slot]
	if !e.Swapped() {
		return
	}
	dev.release(int64(e.Frame - dev.base))
	r.PTEs[slot] = PTE{Frame: mem.NoFrame}
}

// ReleaseSwapped drops every swapped slot of a process on the device (used
// by Exit and DontNeed when swap is active).
func (v *VMM) ReleaseSwapped(p *Process, dev *SwapDevice) int {
	if dev == nil {
		return 0
	}
	n := 0
	// Address order, not map order: released slots land on the device's
	// LIFO free list, so visit order decides future slot assignment.
	for _, r := range p.RegionsInOrder() {
		if r.Huge {
			continue
		}
		for slot := range r.PTEs {
			if r.PTEs[slot].Swapped() {
				v.dropSwapSlot(r, slot, dev)
				n++
			}
		}
	}
	return n
}
