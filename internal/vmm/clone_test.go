package vmm

import (
	"fmt"
	"testing"

	"hawkeye/internal/mem"
)

// pteDigest summarizes the translation state a fork must not share with its
// parent: every region's kind, flags and frame assignments.
func pteDigest(p *Process) string {
	out := ""
	for i, r := range p.RegionsInOrder() {
		out += fmt.Sprintf("r%d huge=%v res=%v pop=%d:", i, r.Huge, r.Reserved, r.Populated())
		if r.Huge {
			out += fmt.Sprintf(" hf=%d", r.HugeFrame)
		} else {
			for s := range r.PTEs {
				if e := r.PTEs[s]; e.Present() {
					out += fmt.Sprintf(" %d=%d", s, e.Frame)
				}
			}
		}
		out += "\n"
	}
	return out
}

// TestForkIntoDoesNotAliasParent holds the snapshot layer's core promise at
// the VMM level: after sealing the allocator, store and VMM and forking them
// with ForkInto, mutating the fork — remapping pages, setting access/dirty
// bits, unmapping — never changes the parent's state. The parent's
// translation digest is taken before and after the mutations and must match
// exactly.
func TestForkIntoDoesNotAliasParent(t *testing.T) {
	h := newHarness(t, 32)
	p := h.vmm.NewProcess("parent")
	frames := make([]mem.FrameID, 0, 64)
	for vpn := VPN(0); vpn < 64; vpn++ {
		frames = append(frames, h.mapBasePage(t, p, vpn))
	}
	before := pteDigest(p)
	freeBefore := h.alloc.FreePages()

	h.alloc.Seal()
	h.store.Seal()
	h.vmm.Seal()
	calloc := h.alloc.Fork()
	cstore := h.store.Fork()
	cv := h.vmm.ForkInto(calloc, cstore)
	var cp *Process
	for _, q := range cv.Processes() {
		if q.PID == p.PID {
			cp = q
		}
	}
	if cp == nil {
		t.Fatal("fork lost the process")
	}

	// Mutate the fork every way a run would: dirty pages, remap a slot to a
	// fresh frame, and tear down a whole region.
	for vpn := VPN(0); vpn < 64; vpn++ {
		if cv.Access(cp, vpn, true) != TouchOK {
			t.Fatalf("fork access vpn %d failed", vpn)
		}
	}
	blk, err := calloc.Alloc(0, mem.PreferZero, mem.TagAnon)
	if err != nil {
		t.Fatal(err)
	}
	cstore.SetZero(blk.Head)
	r := cp.EnsureRegion(0)
	cv.UnmapBase(cp, r, SlotOf(3), true)
	cv.MapBase(cp, r, SlotOf(3), blk.Head)

	if got := pteDigest(p); got != before {
		t.Errorf("parent translation state changed after fork mutation\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if got := h.alloc.FreePages(); got != freeBefore {
		t.Errorf("parent allocator free pages changed: %d -> %d", freeBefore, got)
	}
	// The parent's frames must still be the ones mapped before the fork.
	for vpn := VPN(0); vpn < 64; vpn++ {
		pte, _, present := p.Lookup(vpn)
		if !present || pte.Frame != frames[vpn] {
			t.Fatalf("parent vpn %d remapped: %+v (want frame %d)", vpn, pte, frames[vpn])
		}
	}
}
