package snapshot

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"hawkeye/internal/kernel"
	"hawkeye/internal/trace"
)

func testCfg() kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.MemoryBytes = 32 << 20
	return cfg
}

// TestForSingleflight holds the cache's concurrency contract: many
// goroutines requesting the same key get the one shared Snapshot, built
// exactly once; a different key gets a different warm-up.
func TestForSingleflight(t *testing.T) {
	Cache.Reset()
	defer Cache.Reset()

	const workers = 8
	snaps := make([]*kernel.Snapshot, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snaps[i] = For(testCfg(), 0.3, kernel.DefaultPinnedChunkFrac)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("worker %d got a different snapshot for the same key", i)
		}
	}
	if other := For(testCfg(), 0.6, kernel.DefaultPinnedChunkFrac); other == snaps[0] {
		t.Fatal("different fragmentation keep shared a snapshot")
	}
}

// TestForkMatchesDirectBuild pins the documented equivalence: a cache fork
// and a direct kernel.New + FragmentMemoryPinned with the same parameters
// describe the same machine.
func TestForkMatchesDirectBuild(t *testing.T) {
	Cache.Reset()
	defer Cache.Reset()

	cfg := testCfg()
	forked := Fork(cfg, nil, 0.3, kernel.DefaultPinnedChunkFrac)

	direct := kernel.New(cfg, nil)
	direct.FragmentMemoryPinned(0.3, kernel.DefaultPinnedChunkFrac)

	if f, d := forked.Alloc.FreePages(), direct.Alloc.FreePages(); f != d {
		t.Errorf("free pages differ: forked %d, direct %d", f, d)
	}
	if f, d := forked.Alloc.AllocatedPages(), direct.Alloc.AllocatedPages(); f != d {
		t.Errorf("allocated pages differ: forked %d, direct %d", f, d)
	}
	for order := 0; order <= 9; order++ {
		if f, d := forked.Alloc.FreeBlocks(order), direct.Alloc.FreeBlocks(order); f != d {
			t.Errorf("order-%d free blocks differ: forked %d, direct %d", order, f, d)
		}
	}
}

// TestResetDropsEntries checks the isolation hook: after Reset, the same key
// warms up again and yields a distinct Snapshot.
func TestResetDropsEntries(t *testing.T) {
	Cache.Reset()
	defer Cache.Reset()

	first := For(testCfg(), 0.3, kernel.DefaultPinnedChunkFrac)
	Cache.Reset()
	second := For(testCfg(), 0.3, kernel.DefaultPinnedChunkFrac)
	if first == second {
		t.Fatal("Reset did not drop the cached snapshot")
	}
}

// TestForRejectsSharedEngine pins the precondition panic.
func TestForRejectsSharedEngine(t *testing.T) {
	Cache.Reset()
	defer Cache.Reset()

	defer func() {
		if recover() == nil {
			t.Error("For with a shared engine did not panic")
		}
	}()
	cfg := testCfg()
	cfg.Engine = kernel.New(testCfg(), nil).Engine
	For(cfg, 0.3, kernel.DefaultPinnedChunkFrac)
}

// TestCacheBudgetEvictsLeastRecentlyForked pins the eviction policy: under
// a budget that fits one snapshot, warming a second key evicts the one
// forked longer ago, and the entry in active use is never the victim.
func TestCacheBudgetEvictsLeastRecentlyForked(t *testing.T) {
	Cache.Reset()
	defer Cache.Reset()
	defer Cache.SetBudget(0)

	a := For(testCfg(), 0.3, kernel.DefaultPinnedChunkFrac)
	budget := a.Bytes() + a.Bytes()/2 // fits one snapshot, not two
	Cache.SetBudget(budget)
	if got := Cache.Stats(); got.Entries != 1 || got.Evictions != 0 {
		t.Fatalf("budget above resident size evicted: %+v", got)
	}

	For(testCfg(), 0.6, kernel.DefaultPinnedChunkFrac) // over budget: evicts a (older fork stamp)
	st := Cache.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("expected 1 entry, 1 eviction, got %+v", st)
	}
	if st.ResidentBytes > budget {
		t.Fatalf("resident %d exceeds budget %d after eviction", st.ResidentBytes, budget)
	}

	// The evicted key rebuilds: a distinct snapshot this time.
	if again := For(testCfg(), 0.3, kernel.DefaultPinnedChunkFrac); again == a {
		t.Fatal("evicted snapshot was still served from the cache")
	}
	if st := Cache.Stats(); st.Evictions != 2 {
		t.Fatalf("rebuild should have evicted the other entry, got %+v", st)
	}
}

// TestCacheBudgetKeepsLiveEntry: a budget too small for even one snapshot
// must not evict the snapshot being handed out.
func TestCacheBudgetKeepsLiveEntry(t *testing.T) {
	Cache.Reset()
	defer Cache.Reset()
	defer Cache.SetBudget(0)

	Cache.SetBudget(1) // smaller than any snapshot
	first := For(testCfg(), 0.3, kernel.DefaultPinnedChunkFrac)
	if st := Cache.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("live entry evicted under tiny budget: %+v", st)
	}
	second := For(testCfg(), 0.6, kernel.DefaultPinnedChunkFrac)
	if st := Cache.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("expected older entry evicted once second arrived: %+v", st)
	}
	_, _ = first, second
}

// TestCacheCounterSchema pins what the cache leaves on a traced fork's
// vmstat: snapshot_cow_dirty_chunks, which counts this machine's own
// copy-on-write traffic, and no snapshot_cache_ line — the cache's resident
// bytes and evictions depend on what else the process forked, so they live
// on the introspect registry, not on the machine.
func TestCacheCounterSchema(t *testing.T) {
	Cache.Reset()
	defer Cache.Reset()

	cfg := testCfg()
	cfg.Trace = &trace.Config{}
	k := Fork(cfg, nil, 0.3, kernel.DefaultPinnedChunkFrac)

	var buf bytes.Buffer
	if err := k.Trace.Counters.WriteVmstat(&buf); err != nil {
		t.Fatal(err)
	}
	vmstat := buf.String()
	if !strings.Contains(vmstat, "\nsnapshot_cow_dirty_chunks ") {
		t.Errorf("vmstat snapshot is missing snapshot_cow_dirty_chunks:\n%s", vmstat)
	}
	if strings.Contains(vmstat, "\nsnapshot_cache_") {
		t.Errorf("vmstat snapshot carries a process-wide snapshot_cache_ line:\n%s", vmstat)
	}
	if snap := For(cfg, 0.3, kernel.DefaultPinnedChunkFrac); snap.Bytes() <= 0 {
		t.Error("Snapshot.Bytes must be positive for a fragmented machine")
	}
}
