package mem

import (
	"errors"
	"fmt"
	"math/bits"

	"hawkeye/internal/mem/cow"
	"hawkeye/internal/trace"
)

// ErrOutOfMemory is returned when an allocation cannot be satisfied even
// after reclaiming page-cache frames.
var ErrOutOfMemory = errors.New("mem: out of memory")

// ZeroPref expresses which free list an allocation prefers.
type ZeroPref uint8

// Allocation preferences for the zero / non-zero split lists.
const (
	// PreferZero serves the request from the pre-zeroed list when possible
	// (anonymous memory: saves synchronous zeroing).
	PreferZero ZeroPref = iota
	// PreferNonZero serves from the non-zero list when possible
	// (copy-on-write and file-backed memory: zeroing would be wasted).
	PreferNonZero
)

// Block is the result of a buddy allocation.
type Block struct {
	Head   FrameID
	Order  int
	Zeroed bool // contents were already all-zero at allocation time
}

// Pages reports the number of base pages in the block.
func (b Block) Pages() Pages { return 1 << b.Order }

// Mover relocates the contents and mappings of a single allocated frame, in
// support of memory compaction. Implemented by the virtual-memory layer.
// MoveFrame returns false if the frame cannot be moved (pinned).
type Mover interface {
	MoveFrame(old, new FrameID) bool
}

// Allocator is a binary buddy allocator over a flat frame table with split
// zero/non-zero free lists per order. Its big per-frame tables are chunked
// copy-on-write (internal/mem/cow): Seal freezes them for O(1)-per-chunk
// forking, and a forked allocator pays only for the chunks it mutates.
type Allocator struct {
	frames *cow.Table[frame]
	// Intrusive free-list links, as int32 frame numbers (-1 = none): a frame
	// table never exceeds 2^31 entries, and halving the link width halves
	// the memory cleared on machine construction and touched by list walks.
	next *cow.Table[int32]
	prev *cow.Table[int32]

	// zeroBits holds the per-frame "content is all-zero" bit (bit i of word
	// i/64 = frame i). Buddy blocks are order-aligned, so any block of 64+
	// frames covers whole words and smaller blocks sit inside one word —
	// zero checks over blocks collapse to full-word compares and masks.
	// Fresh memory is all-zero, which is exactly the table's background
	// fill: words never cleared cost no storage.
	zeroBits *cow.Table[uint64]

	// heads[order][class], class 0 = zero list, 1 = non-zero list.
	heads  [MaxOrder + 1][2]FrameID
	counts [MaxOrder + 1][2]int64 // free blocks per order per class

	totalPages    Pages
	freePages     Pages
	zeroFreePages Pages
	peakAllocated Pages
	tagPages      [5]Pages // allocated pages per Tag (TagFree unused)

	// fileLIFO holds reclaimable page-cache frames (LIFO), as int32 frame
	// numbers like the free-list links. The table is sized to the machine
	// up front (lazy chunks make that free) and lifoLen tracks the live
	// prefix; pushFile grows it on the rare occasion reclaim/re-fill churn
	// pushes past the initial size.
	fileLIFO *cow.Table[int32]
	lifoLen  int
	mover    Mover

	// Stats.
	ReclaimedPages  Pages // file pages dropped under pressure
	CompactedBlocks int64 // huge-page-sized blocks rebuilt by compaction
	MovedFrames     int64 // frames migrated by compaction
	FailedMoves     int64

	// Tracing (nil when disabled; counter handles are nil-safe, and the
	// watermark check branches on tr once per alloc/free).
	tr                *trace.Recorder
	ctrCompactSuccess *trace.Counter
	ctrCompactFail    *trace.Counter
	ctrCompactMoved   *trace.Counter
	ctrCompactScanned *trace.Counter
	ctrPgReclaim      *trace.Counter
	wmarkLow          Pages // below: watermark level 1
	wmarkMin          Pages // below: watermark level 2 (allocation stalls near)
	wmarkLevel        int32
}

const (
	classZero    = 0
	classNonZero = 1
)

// NewAllocator creates an allocator managing totalBytes of simulated DRAM.
// totalBytes is rounded down to a multiple of the largest buddy block.
func NewAllocator(totalBytes Bytes) *Allocator {
	blockBytes := Bytes(PageSize << MaxOrder)
	if totalBytes < blockBytes {
		totalBytes = blockBytes
	}
	//lint:allow unitsafety whole-block rounding: geometry confined to this line
	pages := Pages(totalBytes/blockBytes) * (1 << MaxOrder)
	a := &Allocator{
		frames: cow.NewTable[frame](int(pages), frame{}),
		next:   cow.NewTable[int32](int(pages), 0),
		prev:   cow.NewTable[int32](int(pages), 0),
		// Fresh machine memory is treated as zeroed: the all-ones fill is
		// the table background, so untouched words are never stored.
		zeroBits:   cow.NewTable[uint64](int(pages/64), ^uint64(0)),
		totalPages: pages,
		// Pre-size the page-cache LIFO for the fragmentation experiments,
		// which push every frame of the machine through it.
		fileLIFO: cow.NewTable[int32](int(pages), 0),
	}
	for o := 0; o <= MaxOrder; o++ {
		a.heads[o][classZero] = NoFrame
		a.heads[o][classNonZero] = NoFrame
	}
	for head := FrameID(0); head < FrameID(pages); head += 1 << MaxOrder {
		a.insertFree(head, MaxOrder)
	}
	a.freePages = pages
	a.zeroFreePages = pages
	return a
}

// SetTrace attaches the observability layer: compaction/reclaim counters
// and watermark_cross events at the classic kswapd thresholds (low =
// total/10 free, min = total/50 free). Passing nil detaches.
func (a *Allocator) SetTrace(r *trace.Recorder) {
	a.tr = r
	if r == nil {
		return
	}
	a.ctrCompactSuccess = r.Counter("compact_success")
	a.ctrCompactFail = r.Counter("compact_fail")
	a.ctrCompactMoved = r.Counter("compact_pages_moved")
	a.ctrCompactScanned = r.Counter("compact_scanned")
	a.ctrPgReclaim = r.Counter("pgsteal_file")
	a.wmarkLow = a.totalPages / 10
	a.wmarkMin = a.totalPages / 50
	a.wmarkLevel = a.watermarkLevel()
}

// watermarkLevel classifies the current free-page count against the traced
// watermarks: 0 = healthy, 1 = below low, 2 = below min.
func (a *Allocator) watermarkLevel() int32 {
	switch {
	case a.freePages <= a.wmarkMin:
		return 2
	case a.freePages <= a.wmarkLow:
		return 1
	default:
		return 0
	}
}

// noteWatermark emits a watermark_cross event when the free-page level moved
// to a different watermark band since the last alloc/free.
func (a *Allocator) noteWatermark() {
	if a.tr == nil {
		return
	}
	if lvl := a.watermarkLevel(); lvl != a.wmarkLevel {
		a.wmarkLevel = lvl
		a.tr.WatermarkCross(lvl, int64(a.freePages))
	}
}

// SetMover registers the frame migration callback used by Compact.
func (a *Allocator) SetMover(m Mover) { a.mover = m }

// TotalPages reports the number of managed base-page frames.
func (a *Allocator) TotalPages() Pages { return a.totalPages }

// FreePages reports currently free base pages.
func (a *Allocator) FreePages() Pages { return a.freePages }

// ZeroFreePages reports free base pages whose contents are all-zero.
func (a *Allocator) ZeroFreePages() Pages { return a.zeroFreePages }

// AllocatedPages reports totalPages - freePages.
func (a *Allocator) AllocatedPages() Pages { return a.totalPages - a.freePages }

// PeakAllocated reports the high-water mark of allocated pages — what a
// hypervisor that cannot observe guest frees would have to keep resident.
func (a *Allocator) PeakAllocated() Pages { return a.peakAllocated }

// UsedFraction reports allocated/total, in [0,1].
func (a *Allocator) UsedFraction() float64 {
	return float64(a.AllocatedPages()) / float64(a.totalPages)
}

// TagPages reports allocated pages carrying the given tag.
func (a *Allocator) TagPages(t Tag) Pages { return a.tagPages[t] }

// FreeBlocks reports the number of free blocks at exactly the given order.
func (a *Allocator) FreeBlocks(order int) int64 {
	return a.counts[order][classZero] + a.counts[order][classNonZero]
}

// FreeBlocksAtLeast reports free blocks at order or above.
func (a *Allocator) FreeBlocksAtLeast(order int) int64 {
	var n int64
	for o := order; o <= MaxOrder; o++ {
		n += a.FreeBlocks(o)
	}
	return n
}

// frameZeroed reports the content bit of one frame.
func (a *Allocator) frameZeroed(id FrameID) bool {
	return a.zeroBits.Get(int(id>>6))&(1<<(uint64(id)&63)) != 0
}

// setFrameZeroed / clearFrameZeroed are read-check-write so that no-op
// updates (setting a bit already set) never materialize a shared chunk.
func (a *Allocator) setFrameZeroed(id FrameID) {
	w := a.zeroBits.Get(int(id >> 6))
	if nw := w | 1<<(uint64(id)&63); nw != w {
		a.zeroBits.Set(int(id>>6), nw)
	}
}

func (a *Allocator) clearFrameZeroed(id FrameID) {
	w := a.zeroBits.Get(int(id >> 6))
	if nw := w &^ (1 << (uint64(id) & 63)); nw != w {
		a.zeroBits.Set(int(id>>6), nw)
	}
}

// blockMask returns the zeroBits word range [lo, hi) covered by a block of
// 64 or more frames. Blocks under 64 frames use blockBits instead.
func (a *Allocator) blockWords(head FrameID, order int) (lo, hi FrameID) {
	return head >> 6, (head + FrameID(1)<<order) >> 6
}

// blockBits returns the single-word mask of a block smaller than 64 frames.
// Buddy alignment guarantees such a block never straddles a word.
func blockBits(head FrameID, order int) (word FrameID, mask uint64) {
	n := uint64(1) << order
	return head >> 6, (uint64(1)<<n - 1) << (uint64(head) & 63)
}

// blockAllZero reports whether every frame in the block has zero content.
func (a *Allocator) blockAllZero(head FrameID, order int) bool {
	if order < 6 {
		word, mask := blockBits(head, order)
		return a.zeroBits.Get(int(word))&mask == mask
	}
	lo, hi := a.blockWords(head, order)
	for w := lo; w < hi; w++ {
		if a.zeroBits.Get(int(w)) != ^uint64(0) {
			return false
		}
	}
	return true
}

// countBlockZero counts zero-content frames in the block.
func (a *Allocator) countBlockZero(head FrameID, order int) int64 {
	if order < 6 {
		word, mask := blockBits(head, order)
		return int64(bits.OnesCount64(a.zeroBits.Get(int(word)) & mask))
	}
	lo, hi := a.blockWords(head, order)
	var n int64
	for w := lo; w < hi; w++ {
		n += int64(bits.OnesCount64(a.zeroBits.Get(int(w))))
	}
	return n
}

// clearBlockZero marks every frame of the block non-zero. Words already at
// the target value are skipped so no-op updates never copy a shared chunk.
func (a *Allocator) clearBlockZero(head FrameID, order int) {
	if order < 6 {
		word, mask := blockBits(head, order)
		if w := a.zeroBits.Get(int(word)); w&mask != 0 {
			a.zeroBits.Set(int(word), w&^mask)
		}
		return
	}
	lo, hi := a.blockWords(head, order)
	for w := lo; w < hi; w++ {
		if a.zeroBits.Get(int(w)) != 0 {
			a.zeroBits.Set(int(w), 0)
		}
	}
}

// setBlockZero marks every frame of the block zero-content (same no-op
// skip as clearBlockZero).
func (a *Allocator) setBlockZero(head FrameID, order int) {
	if order < 6 {
		word, mask := blockBits(head, order)
		if w := a.zeroBits.Get(int(word)); w&mask != mask {
			a.zeroBits.Set(int(word), w|mask)
		}
		return
	}
	lo, hi := a.blockWords(head, order)
	for w := lo; w < hi; w++ {
		if a.zeroBits.Get(int(w)) != ^uint64(0) {
			a.zeroBits.Set(int(w), ^uint64(0))
		}
	}
}

// insertFree links a block onto the zero or non-zero free list. The class is
// derived from the per-frame content bits so it can never go stale (a block
// of all-zero frames must be allocatable without re-zeroing even if it was
// merged through the non-zero list at some point).
func (a *Allocator) insertFree(head FrameID, order int) {
	cls := classNonZero
	if a.blockAllZero(head, order) {
		cls = classZero
	}
	f := a.frames.Mut(int(head))
	f.tag = TagFree
	f.freeHead = true
	f.order = uint8(order)
	f.freeClass = uint8(cls)
	a.next.Set(int(head), int32(a.heads[order][cls]))
	a.prev.Set(int(head), -1)
	if a.heads[order][cls] != NoFrame {
		a.prev.Set(int(a.heads[order][cls]), int32(head))
	}
	a.heads[order][cls] = head
	a.counts[order][cls]++
}

// unlinkFree removes a specific free block head from its list.
func (a *Allocator) unlinkFree(head FrameID) {
	f := a.frames.Mut(int(head))
	order := int(f.order)
	cls := int(f.freeClass)
	prev, next := a.prev.Get(int(head)), a.next.Get(int(head))
	if prev != -1 {
		a.next.Set(int(prev), next)
	} else {
		a.heads[order][cls] = FrameID(next)
	}
	if next != -1 {
		a.prev.Set(int(next), prev)
	}
	f.freeHead = false
	a.counts[order][cls]--
}

// popFree removes and returns the head of the free list (order, cls), or
// NoFrame if empty.
func (a *Allocator) popFree(order, cls int) FrameID {
	head := a.heads[order][cls]
	if head == NoFrame {
		return NoFrame
	}
	a.unlinkFree(head)
	return head
}

// Alloc allocates a 2^order-page block with the given tag and zero
// preference. It reclaims page-cache frames under pressure before failing
// with ErrOutOfMemory.
func (a *Allocator) Alloc(order int, pref ZeroPref, tag Tag) (Block, error) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("mem: Alloc order %d out of range", order))
	}
	if tag == TagFree {
		panic("mem: Alloc with TagFree")
	}
	blk, ok := a.tryAlloc(order, pref, tag)
	if ok {
		return blk, nil
	}
	// Reclaim page cache and retry. New page-cache fills never evict the
	// cache to make room for themselves; only anonymous/kernel allocations
	// apply pressure.
	for tag != TagFile && a.lifoLen > 0 {
		// Modest reclaim batches: evict only as much cache as the retry
		// loop actually needs, rather than whole swaths per attempt.
		batch := 1 << order
		if batch > 128 {
			batch = 128
		}
		a.reclaimFile(batch)
		if blk, ok = a.tryAlloc(order, pref, tag); ok {
			return blk, nil
		}
	}
	return Block{Head: NoFrame}, fmt.Errorf("%w: order %d (%d free pages, %d free blocks ≥ order)",
		ErrOutOfMemory, order, a.freePages, a.FreeBlocksAtLeast(order))
}

// AllocOpportunistic allocates without applying reclaim pressure — the
// fault-path semantics of transparent huge page allocation in Linux
// (__GFP_NORETRY): either contiguity exists right now or the caller falls
// back to base pages.
func (a *Allocator) AllocOpportunistic(order int, pref ZeroPref, tag Tag) (Block, bool) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("mem: AllocOpportunistic order %d out of range", order))
	}
	if tag == TagFree {
		panic("mem: AllocOpportunistic with TagFree")
	}
	return a.tryAlloc(order, pref, tag)
}

// tryAlloc attempts an allocation without reclaim.
func (a *Allocator) tryAlloc(order int, pref ZeroPref, tag Tag) (Block, bool) {
	first, second := classZero, classNonZero
	if pref == PreferNonZero {
		first, second = classNonZero, classZero
	}
	// Exact-order match in the preferred class, then the other class, then
	// split progressively larger blocks (preferred class first per order).
	for o := order; o <= MaxOrder; o++ {
		for _, cls := range [2]int{first, second} {
			head := a.popFree(o, cls)
			if head == NoFrame {
				continue
			}
			// Split down to the requested order, returning upper halves to
			// the free lists (each reclassified from its own content).
			for cur := o; cur > order; cur-- {
				buddy := head + FrameID(1)<<(cur-1)
				a.insertFree(buddy, cur-1)
			}
			zeroed := a.blockAllZero(head, order)
			a.commitAlloc(head, order, tag)
			return Block{Head: head, Order: order, Zeroed: zeroed}, true
		}
	}
	return Block{Head: NoFrame}, false
}

// commitAlloc marks the frames of a block allocated. Per-frame content
// (zeroed) bits are preserved: allocation does not change page contents.
// Frame metadata is rewritten span-at-a-time (one chunk ownership check
// per run, not per frame) — with huge allocations this loop sits on the
// fault path's free-list refill cycle.
func (a *Allocator) commitAlloc(head FrameID, order int, tag Tag) {
	n := FrameID(1) << order
	for i := FrameID(0); i < n; {
		span := a.frames.MutSpan(int(head + i))
		if rem := int(n - i); len(span) > rem {
			span = span[:rem]
		}
		for j := range span {
			span[j].tag = tag
			span[j].freeHead = false
		}
		i += FrameID(len(span))
	}
	a.zeroFreePages -= Pages(a.countBlockZero(head, order))
	a.freePages -= Pages(n)
	if alloc := a.totalPages - a.freePages; alloc > a.peakAllocated {
		a.peakAllocated = alloc
	}
	a.tagPages[tag] += Pages(n)
	if tag == TagFile {
		for i := FrameID(0); i < n; i++ {
			a.pushFile(head + i)
		}
	}
	a.noteWatermark()
}

// pushFile appends one frame to the page-cache LIFO, growing the table on
// the rare occasion churn pushes past its pre-sized length.
func (a *Allocator) pushFile(id FrameID) {
	if a.lifoLen == a.fileLIFO.Len() {
		a.fileLIFO.Grow(a.lifoLen + a.lifoLen/2 + 1)
	}
	a.fileLIFO.Set(a.lifoLen, int32(id))
	a.lifoLen++
}

// Free returns a 2^order block to the allocator. dirty indicates the
// application wrote to it (its contents are not all-zero anymore).
func (a *Allocator) Free(head FrameID, order int, dirty bool) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("mem: Free order %d out of range", order))
	}
	if head%(FrameID(1)<<order) != 0 {
		panic(fmt.Sprintf("mem: Free of unaligned block %d order %d", head, order))
	}
	n := FrameID(1) << order
	tag := a.frames.Get(int(head)).tag
	if tag == TagFree {
		panic(fmt.Sprintf("mem: double free of frame %d", head))
	}
	for i := FrameID(0); i < n; {
		span := a.frames.MutSpan(int(head + i))
		if rem := int(n - i); len(span) > rem {
			span = span[:rem]
		}
		for j := range span {
			f := &span[j]
			if f.tag == TagFree {
				panic(fmt.Sprintf("mem: double free of frame %d", head+i+FrameID(j)))
			}
			if f.tag != tag {
				// Mixed-tag blocks are freed per-frame by callers; reaching here
				// means an accounting bug.
				panic(fmt.Sprintf("mem: Free spans tags %v and %v", tag, f.tag))
			}
			f.tag = TagFree
		}
		i += FrameID(len(span))
	}
	if dirty {
		a.clearBlockZero(head, order)
	} else {
		a.zeroFreePages += Pages(a.countBlockZero(head, order))
	}
	a.tagPages[tag] -= Pages(n)
	a.freePages += Pages(n)
	a.coalesce(head, order)
	a.noteWatermark()
}

// coalesce merges the freed block with free buddies and inserts the result.
func (a *Allocator) coalesce(head FrameID, order int) {
	for order < MaxOrder {
		buddy := head ^ (FrameID(1) << order)
		if buddy >= FrameID(a.totalPages) {
			break
		}
		bf := a.frames.Get(int(buddy))
		if bf.tag != TagFree || !bf.freeHead || int(bf.order) != order {
			break
		}
		a.unlinkFree(buddy)
		if buddy < head {
			head = buddy
		}
		order++
	}
	a.insertFree(head, order)
}

// DrainAllFile allocates every free page as page cache (TagFile), returning
// the frames in exactly the order that repeated Alloc(0, PreferNonZero,
// TagFile) calls would return them until ErrOutOfMemory. The fragmentation
// experiments drain the whole machine this way, so the per-page free-list
// surgery and accounting of the generic path are replaced here by one
// simulation over per-(order,class) stacks (the free lists are LIFO, so a
// stack models them exactly) and whole-drain bookkeeping at the end.
func (a *Allocator) DrainAllFile() []FrameID {
	if a.freePages == 0 {
		return nil
	}
	// Seed the stacks from the live free lists: the stack top (end of the
	// slice) must be the list head, so each walked list is reversed.
	var stacks [MaxOrder + 1][2][]FrameID
	for o := 0; o <= MaxOrder; o++ {
		for cls := 0; cls < 2; cls++ {
			var list []FrameID
			for h := a.heads[o][cls]; h != NoFrame; h = FrameID(a.next.Get(int(h))) {
				list = append(list, h)
			}
			for i, j := 0, len(list)-1; i < j; i, j = i+1, j-1 {
				list[i], list[j] = list[j], list[i]
			}
			stacks[o][cls] = list
		}
	}
	out := make([]FrameID, 0, int(a.freePages))
	for {
		// Mirror tryAlloc's search order for PreferNonZero: per order, the
		// non-zero class before the zero class.
		found := false
	scan:
		for o := 0; o <= MaxOrder; o++ {
			for _, cls := range [2]int{classNonZero, classZero} {
				s := stacks[o][cls]
				if len(s) == 0 {
					continue
				}
				h := s[len(s)-1]
				stacks[o][cls] = s[:len(s)-1]
				// Split down to order 0, pushing each buddy onto the stack
				// insertFree would have pushed it onto (class derived from
				// content, exactly as insertFree derives it).
				for cur := o; cur > 0; cur-- {
					buddy := h + FrameID(1)<<(cur-1)
					bcls := classNonZero
					if a.blockAllZero(buddy, cur-1) {
						bcls = classZero
					}
					stacks[cur-1][bcls] = append(stacks[cur-1][bcls], buddy)
				}
				out = append(out, h)
				found = true
				break scan
			}
		}
		if !found {
			break
		}
	}
	// Whole-drain bookkeeping: every frame that was free is now allocated
	// page cache; the free lists are empty. Stale order/freeClass metadata
	// on former split buddies is fine — those fields are only read while
	// freeHead is set, and insertFree rewrites them on the next free.
	for i := 0; i < int(a.totalPages); i++ {
		if a.frames.Get(i).tag == TagFree {
			f := a.frames.Mut(i)
			f.tag = TagFile
			f.freeHead = false
		}
	}
	for o := 0; o <= MaxOrder; o++ {
		for cls := 0; cls < 2; cls++ {
			a.heads[o][cls] = NoFrame
			a.counts[o][cls] = 0
		}
	}
	a.tagPages[TagFile] += a.freePages
	a.freePages = 0
	a.zeroFreePages = 0
	a.peakAllocated = a.totalPages
	for _, id := range out {
		a.pushFile(id)
	}
	return out
}

// reclaimFile drops up to n page-cache frames (LIFO), freeing them dirty.
func (a *Allocator) reclaimFile(n int) int {
	dropped := 0
	for dropped < n && a.lifoLen > 0 {
		id := FrameID(a.fileLIFO.Get(a.lifoLen - 1))
		a.lifoLen--
		if a.frames.Get(int(id)).tag != TagFile {
			continue // already freed explicitly
		}
		a.Free(id, 0, true)
		dropped++
	}
	a.ReclaimedPages += Pages(dropped)
	a.ctrPgReclaim.Add(int64(dropped))
	return dropped
}

// RetagFrame changes the tag of one allocated frame (e.g. page cache that
// becomes a pinned kernel allocation). The frame must be allocated.
func (a *Allocator) RetagFrame(id FrameID, tag Tag) {
	f := a.frames.Mut(int(id))
	if f.tag == TagFree || tag == TagFree {
		panic("mem: RetagFrame on/to free")
	}
	a.tagPages[f.tag]--
	a.tagPages[tag]++
	f.tag = tag
}

// FileCachePages reports live reclaimable page-cache frames.
func (a *Allocator) FileCachePages() Pages { return a.tagPages[TagFile] }

// FrameTag reports the tag of a frame (for tests and the VMM).
func (a *Allocator) FrameTag(id FrameID) Tag { return a.frames.Get(int(id)).tag }

// FrameZeroed reports whether the frame content is known all-zero.
func (a *Allocator) FrameZeroed(id FrameID) bool { return a.frameZeroed(id) }

// MarkDirty records that an allocated frame's content is no longer zero.
func (a *Allocator) MarkDirty(id FrameID) { a.clearFrameZeroed(id) }

// MarkZeroed records that an allocated frame's content is all-zero (e.g.
// after explicit clearing by the fault handler).
func (a *Allocator) MarkZeroed(id FrameID) { a.setFrameZeroed(id) }

// MarkZeroedBlock records that an allocated, buddy-aligned 2^order-page
// block was cleared — MarkZeroed over the whole block, but updating the
// per-frame content bits a word (64 frames) at a time. Words already at
// all-ones are skipped, so re-clearing a known-zero block never
// materializes a shared chunk.
func (a *Allocator) MarkZeroedBlock(head FrameID, order int) { a.setBlockZero(head, order) }

// CheckConsistency validates allocator invariants: free-list contents must
// sum to freePages, per-frame zero bits to zeroFreePages, and every linked
// block must be properly aligned, in range, and marked free. It returns a
// description of the first violation, or "" if consistent. Intended for
// tests and debugging; cost is O(frames).
func (a *Allocator) CheckConsistency() string {
	var listed Pages
	for o := 0; o <= MaxOrder; o++ {
		for cls := 0; cls < 2; cls++ {
			count := int64(0)
			for head := a.heads[o][cls]; head != NoFrame; head = FrameID(a.next.Get(int(head))) {
				f := a.frames.Get(int(head))
				if f.tag != TagFree || !f.freeHead || int(f.order) != o || int(f.freeClass) != cls {
					return fmt.Sprintf("list (o=%d,cls=%d) holds bad head %d: %+v", o, cls, head, f)
				}
				if head%(FrameID(1)<<o) != 0 {
					return fmt.Sprintf("unaligned block %d at order %d", head, o)
				}
				listed += Pages(1) << o
				count++
			}
			if count != a.counts[o][cls] {
				return fmt.Sprintf("count mismatch (o=%d,cls=%d): walked %d, recorded %d", o, cls, count, a.counts[o][cls])
			}
		}
	}
	if listed != a.freePages {
		return fmt.Sprintf("free-list pages %d != freePages %d (leak of %d)", listed, a.freePages, a.freePages-listed)
	}
	var zeroFree, free Pages
	for i := 0; i < int(a.totalPages); i++ {
		if a.frames.Get(i).tag == TagFree {
			free++
			if a.frameZeroed(FrameID(i)) {
				zeroFree++
			}
		}
	}
	if free != a.freePages {
		return fmt.Sprintf("frames tagged free %d != freePages %d", free, a.freePages)
	}
	if zeroFree != a.zeroFreePages {
		return fmt.Sprintf("zeroed free frames %d != zeroFreePages %d", zeroFree, a.zeroFreePages)
	}
	return ""
}
