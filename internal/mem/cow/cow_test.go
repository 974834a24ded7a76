package cow

import (
	"sync"
	"testing"

	"hawkeye/internal/trace"
)

func TestFillAndSetGet(t *testing.T) {
	tb := NewTable[int64](10_000, -7)
	for _, i := range []int{0, 1, ChunkElems - 1, ChunkElems, 9_999} {
		if got := tb.Get(i); got != -7 {
			t.Fatalf("Get(%d) = %d, want fill -7", i, got)
		}
	}
	tb.Set(3, 42)
	*tb.Mut(ChunkElems + 5) = 99
	if tb.Get(3) != 42 || tb.Get(ChunkElems+5) != 99 {
		t.Fatalf("writes not visible: %d %d", tb.Get(3), tb.Get(ChunkElems+5))
	}
	if tb.Get(4) != -7 {
		t.Fatalf("neighbour clobbered: %d", tb.Get(4))
	}
	if tb.Len() != 10_000 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestLazyBackground(t *testing.T) {
	tb := NewTable[uint64](1<<20, 0)
	if got := tb.ResidentChunks(); got != 0 {
		t.Fatalf("fresh table has %d resident chunks, want 0", got)
	}
	tb.Set(123456, 1)
	if got := tb.ResidentChunks(); got != 1 {
		t.Fatalf("one write materialized %d chunks, want 1", got)
	}
	if tb.spine[0] != tb.bg || tb.spine[123456>>chunkShift] == tb.bg {
		t.Fatal("resident chunks do not match the write")
	}
}

func TestForkRequiresSeal(t *testing.T) {
	tb := NewTable[int32](100, 0)
	mustPanic(t, "fork of unsealed table", func() { tb.Fork() })

	tb.Seal()
	tb.Fork() // legal

	tb.Set(1, 5) // write after seal clears forkability
	mustPanic(t, "fork after post-seal write", func() { tb.Fork() })

	tb.Seal()
	tb.Fork() // re-sealing restores it
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestForkIsolation is the table-level aliasing contract: once sealed,
// parent and fork never observe each other's writes, in either direction,
// whether the chunk was background, frozen-with-data, or re-owned.
func TestForkIsolation(t *testing.T) {
	parent := NewTable[int64](3*ChunkElems, 0)
	parent.Set(10, 100)            // chunk 0 materialized pre-seal
	parent.Set(ChunkElems+10, 200) // chunk 1 materialized pre-seal
	parent.Seal()

	fork := parent.Fork()
	// Writes on both sides of every chunk class.
	parent.Set(10, 111)             // frozen chunk, parent side
	fork.Set(ChunkElems+10, 222)    // frozen chunk, fork side
	parent.Set(2*ChunkElems+1, 333) // background chunk, parent side
	fork.Set(2*ChunkElems+2, 444)   // background chunk, fork side

	if fork.Get(10) != 100 || parent.Get(10) != 111 {
		t.Fatalf("chunk 0 aliased: parent=%d fork=%d", parent.Get(10), fork.Get(10))
	}
	if parent.Get(ChunkElems+10) != 200 || fork.Get(ChunkElems+10) != 222 {
		t.Fatalf("chunk 1 aliased: parent=%d fork=%d", parent.Get(ChunkElems+10), fork.Get(ChunkElems+10))
	}
	if fork.Get(2*ChunkElems+1) != 0 || parent.Get(2*ChunkElems+2) != 0 {
		t.Fatal("background chunk aliased across fork")
	}
}

func TestGrow(t *testing.T) {
	tb := NewTable[int64](10, 7)
	tb.Set(3, 1)
	tb.Grow(3 * ChunkElems)
	if tb.Len() != 3*ChunkElems {
		t.Fatalf("Len = %d after grow", tb.Len())
	}
	if tb.Get(3) != 1 || tb.Get(3*ChunkElems-1) != 7 {
		t.Fatal("grow lost data or fill")
	}
	tb.Grow(5) // shrink is a no-op
	if tb.Len() != 3*ChunkElems {
		t.Fatal("Grow shrank the table")
	}
}

func TestDirtyAccounting(t *testing.T) {
	cs := trace.NewCounters(nil)
	c := cs.Counter("snapshot_cow_dirty_chunks")
	tb := NewTable[int64](4*ChunkElems, 0)
	tb.SetDirtyCounter(c)

	tb.Set(0, 1)          // first touch: lazy allocation, not a COW copy
	tb.Set(1, 2)          // same chunk: nothing to do
	tb.Set(ChunkElems, 3) // another first touch
	if tb.DirtyChunks() != 0 || c.Value() != 0 {
		t.Fatalf("dirty = %d, counter = %d; first touches of the fill must not count", tb.DirtyChunks(), c.Value())
	}

	tb.Seal()
	tb.Set(0, 4)            // frozen resident chunk copied: counts
	tb.Set(2*ChunkElems, 5) // first touch after seal: still lazy allocation
	if tb.DirtyChunks() != 1 || c.Value() != 1 {
		t.Fatalf("post-seal dirty = %d, counter = %d, want 1/1", tb.DirtyChunks(), c.Value())
	}

	tb.Seal()
	fork := tb.Fork()
	fork.SetDirtyCounter(cs.Counter("fork_dirty"))
	fork.Set(0, 6) // shared resident chunk copied into the fork: counts
	if fork.DirtyChunks() != 1 {
		t.Fatalf("fork dirty = %d, want 1", fork.DirtyChunks())
	}
}

func TestHeapBytes(t *testing.T) {
	tb := NewTable[uint64](2*ChunkElems, 0)
	spine := tb.HeapBytes()
	if spine <= 0 || spine >= 8*ChunkElems {
		t.Fatalf("pristine HeapBytes = %d, want small spine-only footprint", spine)
	}
	tb.Set(0, 1)
	if got := tb.HeapBytes(); got != spine+8*ChunkElems {
		t.Fatalf("HeapBytes after one chunk = %d, want %d", got, spine+8*ChunkElems)
	}
}

// TestParallelForksDisjointChunks forks one sealed table from many
// goroutines, each mutating a chunk range private to it — the snapshot
// cache's fan-out pattern. Run under -race this verifies that concurrent
// forking and disjoint-chunk COW never touch shared state.
func TestParallelForksDisjointChunks(t *testing.T) {
	const forks = 8
	parent := NewTable[int64](forks*ChunkElems, 0)
	for i := 0; i < parent.Len(); i++ {
		parent.Set(i, int64(i))
	}
	parent.Seal()

	var wg sync.WaitGroup
	errs := make(chan string, forks)
	for g := 0; g < forks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := parent.Fork()
			base := g * ChunkElems
			for i := 0; i < ChunkElems; i++ {
				f.Set(base+i, int64(-g))
			}
			// Own writes visible; everyone else's chunks unchanged.
			for i := 0; i < f.Len(); i++ {
				want := int64(i)
				if i >= base && i < base+ChunkElems {
					want = int64(-g)
				}
				if f.Get(i) != want {
					errs <- "fork observed foreign writes"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for i := 0; i < parent.Len(); i++ {
		if parent.Get(i) != int64(i) {
			t.Fatalf("parent mutated at %d", i)
		}
	}
}

// TestParallelForksOverlappingChunks has every fork hammer the same
// chunks. Each fork must materialize its own private copies; under -race
// this is the overlapping-write half of the satellite contract.
func TestParallelForksOverlappingChunks(t *testing.T) {
	const forks = 8
	parent := NewTable[int64](2*ChunkElems, 5)
	parent.Set(1, 50) // one resident chunk, one background chunk
	parent.Seal()

	var wg sync.WaitGroup
	errs := make(chan string, forks)
	for g := 0; g < forks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := parent.Fork()
			for i := 0; i < f.Len(); i++ {
				f.Set(i, int64(1000+g))
			}
			for i := 0; i < f.Len(); i++ {
				if f.Get(i) != int64(1000+g) {
					errs <- "fork lost its own writes"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if parent.Get(1) != 50 || parent.Get(0) != 5 || parent.Get(ChunkElems) != 5 {
		t.Fatal("parent mutated by overlapping fork writes")
	}
}
