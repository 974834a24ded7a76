package kernel

import (
	"fmt"
	"testing"

	"hawkeye/internal/mem"
)

// parentDigest checksums the parent-observable machine state a fork must
// never disturb: allocator occupancy and free-list shape, engine progress,
// TLB counters, and the kernel's accounting scalars.
func parentDigest(k *Kernel) string {
	out := fmt.Sprintf("free=%d alloc=%d fired=%d now=%v lookups=%d misses=%d ooms=%d slow=%v",
		k.Alloc.FreePages(), k.Alloc.AllocatedPages(), k.Engine.Fired(), k.Now(),
		k.TLB.Lookups, k.TLB.Misses, k.OOMs, k.SlowdownFactor)
	for order := 0; order <= mem.HugeOrder; order++ {
		out += fmt.Sprintf(" o%d=%d", order, k.Alloc.FreeBlocks(order))
	}
	return out
}

// runForkWorkload mutates a fork the way a recovery experiment would: spawn
// a process that first-touch writes a few thousand pages, then run to
// completion.
func runForkWorkload(t *testing.T, k *Kernel) *Proc {
	t.Helper()
	p := k.Spawn("fork-toucher", &touchRange{start: 0, end: 3000})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Done {
		t.Fatal("fork workload did not finish")
	}
	return p
}

// TestForkDoesNotAliasParent is the aliasing gate at the machine level: a
// snapshot is captured from a fragmented parent, a fork is run to completion
// (faulting pages, dirtying frames, advancing its private clock and RNG),
// and the parent's state checksum must be bit-for-bit what it was before the
// fork existed. A second fork taken afterwards must then behave exactly like
// the first — proving the snapshot itself was not mutated through the first
// fork either.
func TestForkDoesNotAliasParent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 64 << 20
	parent := New(cfg, &testPolicy{decision: DecideBase})
	parent.FragmentMemoryPinned(0.5, DefaultPinnedChunkFrac)

	snap := parent.Snapshot()
	before := parentDigest(parent)

	forkA := snap.Fork(&testPolicy{decision: DecideBase}, nil)
	pa := runForkWorkload(t, forkA)

	if after := parentDigest(parent); after != before {
		t.Errorf("running a fork mutated the parent\nbefore: %s\nafter:  %s", before, after)
	}

	forkB := snap.Fork(&testPolicy{decision: DecideBase}, nil)
	pb := runForkWorkload(t, forkB)

	if da, db := parentDigest(forkA), parentDigest(forkB); da != db {
		t.Errorf("forks of one snapshot diverged\nfirst:  %s\nsecond: %s", da, db)
	}
	if *pa.Acct != *pb.Acct {
		t.Errorf("fork process accounting diverged:\nfirst:  %+v\nsecond: %+v", pa.Acct, pb.Acct)
	}
	if pa.VP.RSS() != pb.VP.RSS() {
		t.Errorf("fork RSS diverged: %d vs %d", pa.VP.RSS(), pb.VP.RSS())
	}
}

// TestForkMatchesFreshMachine holds the bit-identity contract at unit scale:
// a fork of a fragmented machine and a freshly built machine given the same
// warm-up must run a workload to identical accounting, clocks and TLB
// counters.
func TestForkMatchesFreshMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 64 << 20

	warm := New(cfg, &testPolicy{decision: DecideHuge})
	warm.FragmentMemoryPinned(0.4, DefaultPinnedChunkFrac)
	fork := warm.Snapshot().Fork(&testPolicy{decision: DecideHuge}, nil)
	pf := runForkWorkload(t, fork)

	fresh := New(cfg, &testPolicy{decision: DecideHuge})
	fresh.FragmentMemoryPinned(0.4, DefaultPinnedChunkFrac)
	pn := runForkWorkload(t, fresh)

	if df, dn := parentDigest(fork), parentDigest(fresh); df != dn {
		t.Errorf("forked machine state differs from fresh machine\nfork:  %s\nfresh: %s", df, dn)
	}
	if *pf.Acct != *pn.Acct {
		t.Errorf("accounting differs:\nfork:  %+v\nfresh: %+v", pf.Acct, pn.Acct)
	}
}

// TestParentWritesDoNotReachSnapshot pins the other aliasing direction:
// capture seals the parent's tables, so the parent keeps running (paying
// copy-on-write for its own writes) while the frozen image stays exactly
// what it was — a fork taken after the parent mutated heavily behaves
// bit-for-bit like one taken immediately.
func TestParentWritesDoNotReachSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 64 << 20
	parent := New(cfg, &testPolicy{decision: DecideBase})
	parent.FragmentMemoryPinned(0.5, DefaultPinnedChunkFrac)
	snap := parent.Snapshot()

	early := snap.Fork(&testPolicy{decision: DecideBase}, nil)
	pe := runForkWorkload(t, early)

	// Mutate the parent hard: its writes must land in privately
	// materialized chunks, not the frozen image.
	runForkWorkload(t, parent)
	if parent.COWDirtyChunks() == 0 {
		t.Error("sealed parent mutated without materializing chunks")
	}

	late := snap.Fork(&testPolicy{decision: DecideBase}, nil)
	pl := runForkWorkload(t, late)
	if de, dl := parentDigest(early), parentDigest(late); de != dl {
		t.Errorf("fork taken after parent writes diverged\nearly: %s\nlate:  %s", de, dl)
	}
	if *pe.Acct != *pl.Acct {
		t.Errorf("accounting differs:\nearly: %+v\nlate:  %+v", pe.Acct, pl.Acct)
	}
}

// TestSnapshotRequiresQuiescence pins the capture contract: snapshotting a
// machine that has fired events or spawned processes panics loudly instead
// of silently producing a fork with an empty event queue.
func TestSnapshotRequiresQuiescence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 32 << 20

	k := New(cfg, &testPolicy{decision: DecideBase})
	k.Spawn("toucher", &touchRange{start: 0, end: 100})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Snapshot after Run did not panic")
			}
		}()
		k.Snapshot()
	}()

	k2 := New(cfg, &testPolicy{decision: DecideBase})
	k2.Spawn("toucher", &touchRange{start: 0, end: 100})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Snapshot with spawned processes did not panic")
			}
		}()
		k2.Snapshot()
	}()
}
