// Package cow provides the chunked copy-on-write tables that back every
// big flat per-frame array in the machine: the allocator's frame metadata
// and zero bitmap, the content store's signature arrays, and the VMM's
// reverse map. A Table[T] looks like a []T but stores its elements in
// fixed-size chunks behind a spine of pointers, so that
//
//   - Seal makes the table forkable without touching a chunk: it disowns
//     every chunk, freezing the current contents as a shared generation;
//   - Fork produces a new table over the same chunks in O(#chunks) — it
//     copies only the spine, never element data;
//   - a write after Seal/Fork copies just the 4096-element chunk it lands
//     in ("copy on first write"), so a mutated fork pays only for the
//     chunks it actually dirties.
//
// Chunks are shared structurally, not via per-chunk reference counts: a
// chunk is either owned by exactly one table (the table's owned bit for its
// spine slot is set) or frozen and shared read-only by any number of tables.
// Sealing is the only transition from owned to shared, and nothing ever
// transitions back — a table that needs to write a shared chunk copies it.
// Ownership lives in the table, not the chunk, so a chunk is a plain array
// in an exact allocation size class, and sealing writes to no chunk.
// Unreferenced chunks are reclaimed by the garbage collector when the last
// spine that points at them goes away; a dropped table needs no release
// call.
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
	"slices"
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

// chunk is one fixed-size run of elements.
type chunk[T any] [ChunkElems]T

// Table is a chunked copy-on-write array of T. The zero value is not
// usable; build with NewTable.
type Table[T any] struct {
	spine []*chunk[T]
	// owned holds one bit per spine slot, set while this table alone may
	// write that slot's chunk in place: it materialized the chunk and has
	// not sealed since. A clear bit is the background chunk or a frozen one
	// that other forks may share.
	owned []uint64
	n     int
	// bg is the shared background chunk every never-written spine slot
	// points at. It is immutable for the life of the table family and is
	// never counted as resident.
	bg *chunk[T]
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
}

// NewTable builds a table of n elements, every one reading as fill.
func NewTable[T any](n int, fill T) *Table[T] {
	bg := &chunk[T]{}
	for i := range bg {
		bg[i] = fill
	}
	t := &Table[T]{bg: bg}
	t.spine = make([]*chunk[T], spineLen(n))
	t.owned = make([]uint64, ownedLen(len(t.spine)))
	for i := range t.spine {
		t.spine[i] = bg
	}
	t.n = n
	return t
}

// spineLen returns the number of chunks covering n elements.
func spineLen(n int) int { return (n + ChunkElems - 1) >> chunkShift }

// ownedLen returns the number of words holding one bit per spine slot.
func ownedLen(slots int) int { return (slots + 63) >> 6 }

// owns reports whether spine slot ci holds a chunk this table may write in
// place.
func (t *Table[T]) owns(ci int) bool { return t.owned[ci>>6]&(1<<(ci&63)) != 0 }

// Len returns the element count.
func (t *Table[T]) Len() int { return t.n }

// Get returns element i. Bounds are enforced at chunk granularity (an
// index past the last chunk panics); indexes within the final partial
// chunk read the fill value, mirroring a slice sized up to the chunk
// boundary.
func (t *Table[T]) Get(i int) T {
	return t.spine[i>>chunkShift][i&chunkMask]
}

// Set writes element i, materializing a private copy of its chunk first if
// the chunk is frozen or owned by another table.
func (t *Table[T]) Set(i int, v T) {
	ci := i >> chunkShift
	ch := t.spine[ci]
	if !t.owns(ci) {
		ch = t.materialize(ci)
	}
	ch[i&chunkMask] = v
}

// Mut returns a writable pointer to element i, materializing its chunk
// exactly like Set. The pointer is valid only until the table's next Seal;
// callers must not hold it across a seal/fork boundary.
func (t *Table[T]) Mut(i int) *T {
	ci := i >> chunkShift
	ch := t.spine[ci]
	if !t.owns(ci) {
		ch = t.materialize(ci)
	}
	return &ch[i&chunkMask]
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
	if !t.owns(ci) {
		ch = t.materialize(ci)
	}
	return ch[i&chunkMask:]
}

// materialize copies chunk ci into a privately owned chunk and installs
// it. Concurrent readers of *other* forks share the old chunk, never the
// spine or the owned bits, so they are unaffected. Only copies of resident
// chunks count as dirty: materializing the background fill is first-touch
// lazy allocation, which a freshly built table would pay too.
func (t *Table[T]) materialize(ci int) *chunk[T] {
	src := t.spine[ci]
	nc := new(chunk[T])
	*nc = *src
	t.spine[ci] = nc
	t.owned[ci>>6] |= 1 << (ci & 63)
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
// to any chunk copies that chunk. It clears the owned bits and writes to
// no chunk: O(#chunks / 64).
func (t *Table[T]) Seal() {
	clear(t.owned)
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
	return &Table[T]{
		spine:   slices.Clone(t.spine),
		owned:   make([]uint64, len(t.owned)),
		n:       t.n,
		bg:      t.bg,
		canFork: true,
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
	for len(t.owned) < ownedLen(len(t.spine)) {
		t.owned = append(t.owned, 0)
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
