// Package cow provides the chunked copy-on-write tables that back every
// big flat per-frame array in the machine: the allocator's frame metadata
// and zero bitmap, the content store's signature arrays, and the VMM's
// reverse map. A Table[T] looks like a []T but stores its elements in
// fixed-size chunks behind a spine of pointers, so that
//
//   - Seal makes the table forkable in O(#chunks): it disowns every chunk,
//     freezing the current contents as a shared generation;
//   - Fork produces a new table over the same chunks in O(#chunks) — it
//     copies only the spine, never element data;
//   - a write after Seal/Fork copies just the 4096-element chunk it lands
//     in ("copy on first write"), so a mutated fork pays only for the
//     chunks it actually dirties.
//
// Chunks are shared structurally, not via per-chunk reference counts: a
// chunk is either owned by exactly one table (its owner token matches) or
// frozen and shared read-only by any number of tables (owner nil). Sealing
// is the only transition from owned to shared, and nothing ever transitions
// back — a table that needs to write a shared chunk copies it. Unreferenced
// chunks are reclaimed by the garbage collector when the last spine that
// points at them goes away.
//
// Tables are additionally lazy against a background fill value: a chunk
// that has never been written points at a per-table-family "background"
// chunk holding the fill value in every slot. A freshly built table of any
// length therefore allocates O(#chunks) spine entries and one shared chunk,
// not O(length) elements.
//
// Concurrency contract: a sealed, unmodified table may be forked and read
// from any number of goroutines concurrently. All writes (Set, Mut, Grow,
// Seal) are single-goroutine operations on their table, matching the
// simulator's one-goroutine-per-machine execution model.
package cow

import (
	"sync"
	"unsafe"

	"hawkeye/internal/trace"
)

// chunkShift fixes the chunk size at 4096 elements. For the dominant
// tables (8-byte signatures, 4-byte reverse-map entries, 4-byte frame
// metadata) that is 16–32 KB per chunk: big enough that spine overhead is
// ~0.2% of table size and Get stays two dependent loads, small enough that
// a fork touching one frame copies kilobytes, not megabytes. See DESIGN
// §10 for the full sizing argument.
const (
	chunkShift = 12
	// ChunkElems is the number of elements per chunk.
	ChunkElems = 1 << chunkShift
	chunkMask  = ChunkElems - 1
)

// chunk is one fixed-size run of elements plus its ownership token. owner
// is nil for a frozen (shared, read-only) chunk, or points at the owning
// table's identity token when exactly one table may write it in place.
type chunk[T any] struct {
	owner *uint8
	data  [ChunkElems]T
}

// familyPool recycles chunks and spines across the forks of one table
// family. Short-lived forks (a sweep cell's machine) materialize hundreds of
// chunks and then die; without reuse that is the dominant allocation of a
// sweep — ~93% of allocated bytes — so Release feeds dead forks' private
// chunks back to the family and materialize drains the pool before asking
// the heap. Chunks move through a sync.Pool, so handing a chunk from a dying
// fork on one worker to a fresh fork on another is race-free, and the GC can
// still reclaim pooled memory under pressure.
//
// Pooling is safe because of the ownership invariant (see package comment):
// a chunk with a non-nil owner is referenced by exactly one spine — its
// owner's — so once that table is released, nothing can reach the chunk.
// materialize overwrites both the owner token and the full payload of a
// recycled chunk before publishing it, so no stale state survives reuse.
type familyPool[T any] struct {
	chunks sync.Pool // holds *chunk[T]
	spines sync.Pool // holds *[]*chunk[T], entries nil, len 0
}

func (p *familyPool[T]) getChunk() *chunk[T] {
	if c, ok := p.chunks.Get().(*chunk[T]); ok {
		return c
	}
	return &chunk[T]{}
}

// getSpine returns a zeroed-length spine with capacity >= n, recycled when
// possible.
func (p *familyPool[T]) getSpine(n int) []*chunk[T] {
	if sp, ok := p.spines.Get().(*[]*chunk[T]); ok && cap(*sp) >= n {
		return (*sp)[:n]
	}
	return make([]*chunk[T], n)
}

// Table is a chunked copy-on-write array of T. The zero value is not
// usable; build with NewTable.
type Table[T any] struct {
	spine []*chunk[T]
	n     int
	// bg is the shared background chunk every never-written spine slot
	// points at. It is immutable for the life of the table family and is
	// never counted as resident.
	bg *chunk[T]
	// id is this table's ownership token. A fresh *uint8 per table: the
	// pointer's identity (not its value) is what distinguishes owners, and
	// pointers to distinct non-zero-size allocations are never equal.
	id *uint8
	// canFork records that the table has been sealed and not written
	// since: exactly the state in which Fork is sound. A write after Seal
	// clears it — the written chunk is owned again and would alias.
	canFork bool
	// dirty counts copy-on-write materializations — writes that had to
	// copy a frozen (shared) resident chunk. First touches of the
	// background fill are lazy allocation, not copies: a freshly built
	// table pays them identically, so they are not counted. ctr, when
	// set, mirrors each counted materialization into a trace counter
	// (nil-safe).
	dirty int64
	ctr   *trace.Counter
	// pool is the family's chunk/spine recycler, shared by every fork
	// descended from the same NewTable.
	pool *familyPool[T]
}

// NewTable builds a table of n elements, every one reading as fill.
func NewTable[T any](n int, fill T) *Table[T] {
	bg := &chunk[T]{}
	for i := range bg.data {
		bg.data[i] = fill
	}
	t := &Table[T]{
		bg:   bg,
		id:   new(uint8),
		pool: &familyPool[T]{},
	}
	t.spine = make([]*chunk[T], spineLen(n))
	for i := range t.spine {
		t.spine[i] = bg
	}
	t.n = n
	return t
}

// spineLen returns the number of chunks covering n elements.
func spineLen(n int) int { return (n + ChunkElems - 1) >> chunkShift }

// Len returns the element count.
func (t *Table[T]) Len() int { return t.n }

// Get returns element i. Bounds are enforced at chunk granularity (an
// index past the last chunk panics); indexes within the final partial
// chunk read the fill value, mirroring a slice sized up to the chunk
// boundary.
func (t *Table[T]) Get(i int) T {
	return t.spine[i>>chunkShift].data[i&chunkMask]
}

// Set writes element i, materializing a private copy of its chunk first if
// the chunk is frozen or owned by another table.
func (t *Table[T]) Set(i int, v T) {
	ci := i >> chunkShift
	ch := t.spine[ci]
	if ch.owner != t.id {
		ch = t.materialize(ci)
	}
	ch.data[i&chunkMask] = v
}

// Mut returns a writable pointer to element i, materializing its chunk
// exactly like Set. The pointer is valid only until the table's next Seal;
// callers must not hold it across a seal/fork boundary.
func (t *Table[T]) Mut(i int) *T {
	ci := i >> chunkShift
	ch := t.spine[ci]
	if ch.owner != t.id {
		ch = t.materialize(ci)
	}
	return &ch.data[i&chunkMask]
}

// MutSpan returns a writable slice aliasing the elements of element i's
// chunk from i to the chunk boundary — the longest contiguous writable run
// starting at i. The chunk is materialized exactly like Mut, so a caller
// sweeping a range pays one ownership check and at most one copy per 4096
// elements instead of one per element. Like Mut pointers, the slice is
// valid only until the table's next Seal.
func (t *Table[T]) MutSpan(i int) []T {
	ci := i >> chunkShift
	ch := t.spine[ci]
	if ch.owner != t.id {
		ch = t.materialize(ci)
	}
	return ch.data[i&chunkMask:]
}

// materialize copies chunk ci into a privately owned chunk and installs
// it. The copy is built fully (owner set) before being published on the
// spine, so concurrent readers of *other* forks — which share the old
// chunk, never the spine — are unaffected. Only copies of resident chunks
// count as dirty: materializing the background fill is first-touch lazy
// allocation, which a freshly built table would pay too.
func (t *Table[T]) materialize(ci int) *chunk[T] {
	src := t.spine[ci]
	nc := t.pool.getChunk()
	nc.owner = t.id
	nc.data = src.data
	t.spine[ci] = nc
	if src != t.bg {
		t.dirty++
		t.ctr.Inc()
	}
	t.canFork = false
	return nc
}

// Seal freezes the table's current contents as a shared generation:
// every owned chunk is disowned, after which the table may be forked any
// number of times. The table itself stays fully usable — its next write
// to any chunk copies that chunk. O(#chunks), touching no element data.
func (t *Table[T]) Seal() {
	for _, ch := range t.spine {
		// Only chunks this table owns carry a non-nil owner; skipping the
		// rest keeps Seal from writing to chunks shared with concurrent
		// readers (the write would be a benign nil-over-nil, but it would
		// still be a data race).
		if ch.owner != nil {
			ch.owner = nil
		}
	}
	t.canFork = true
}

// Fork returns a new table sharing every chunk with t. It is only legal on
// a sealed table that has not been written since sealing (panics
// otherwise): an owned chunk on the spine would alias writable state
// between the two tables. O(#chunks) — copies the spine, no element data.
func (t *Table[T]) Fork() *Table[T] {
	if !t.canFork {
		panic("cow: Fork of a table that is not sealed (or was written after sealing)")
	}
	// The fork does not inherit t's dirty counter: counters belong to a
	// machine's trace recorder, and each forked machine wires its own
	// (or none) when its trace is attached.
	spine := t.pool.getSpine(len(t.spine))
	copy(spine, t.spine)
	return &Table[T]{
		spine:   spine,
		n:       t.n,
		bg:      t.bg,
		id:      new(uint8),
		canFork: true,
		pool:    t.pool,
	}
}

// Grow extends the table to n elements, new elements reading as the fill
// value. Shrinking is not supported (no-op when n <= Len).
func (t *Table[T]) Grow(n int) {
	if n <= t.n {
		return
	}
	for len(t.spine) < spineLen(n) {
		t.spine = append(t.spine, t.bg)
	}
	t.n = n
}

// ResidentChunks counts materialized chunks — chunks carrying real data,
// owned or frozen, attributed to this table whether or not other forks
// share them.
func (t *Table[T]) ResidentChunks() int {
	n := 0
	for _, ch := range t.spine {
		if ch != t.bg {
			n++
		}
	}
	return n
}

// HeapBytes estimates the heap footprint attributed to this table: all
// resident chunk payloads plus the spine. Chunks shared with other forks
// are charged in full — for the snapshot cache this is the right
// attribution, since the snapshot is what keeps them alive.
func (t *Table[T]) HeapBytes() int64 {
	var zero T
	elem := int64(unsafe.Sizeof(zero))
	ptr := int64(unsafe.Sizeof(t.bg))
	return int64(t.ResidentChunks())*elem*ChunkElems + int64(len(t.spine))*ptr
}

// DirtyChunks returns the number of copy-on-write materializations this
// table has performed over its lifetime: writes that copied a frozen
// resident chunk. Lazy first touches of the background fill are excluded —
// a fresh table pays those identically, so they measure allocation, not
// the cost of having forked.
func (t *Table[T]) DirtyChunks() int64 { return t.dirty }

// SetDirtyCounter mirrors every future counted materialization into c
// (nil-safe, nil detaches).
func (t *Table[T]) SetDirtyCounter(c *trace.Counter) { t.ctr = c }

// Release retires the table and feeds its recyclable storage back to the
// family pool: every privately owned chunk (reachable only through this
// spine, by the ownership invariant) and the spine itself. Frozen chunks are
// left alone — other forks may share them — and background slots carry no
// storage. The table is unusable afterwards (any access panics); callers
// invoke Release only when the machine owning the table is torn down, and
// must not hold Mut pointers across it. Sealed-and-unwritten tables own
// nothing, so releasing one recycles only the spine.
func (t *Table[T]) Release() {
	for i, ch := range t.spine {
		if ch.owner == t.id {
			ch.owner = nil
			t.pool.chunks.Put(ch)
		}
		t.spine[i] = nil
	}
	sp := t.spine[:0]
	t.pool.spines.Put(&sp)
	t.spine = nil
	t.n = 0
	t.canFork = false
}
