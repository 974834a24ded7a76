package mem

// Pre-zeroing support: the HawkEye async pre-zero thread drains blocks from
// the non-zero free lists, clears them (with simulated cost charged by the
// caller), and reinserts them on the zero lists so that future anonymous
// allocations skip synchronous zeroing.

// PopNonZeroBlock removes and returns one block from the non-zero free
// lists, preferring the largest block available (zeroing big contiguous
// blocks first maximizes the chance that huge-page allocations find
// pre-zeroed memory). Returns ok=false when every free page is already
// zeroed.
func (a *Allocator) PopNonZeroBlock() (head FrameID, order int, ok bool) {
	for o := MaxOrder; o >= 0; o-- {
		if h := a.popFree(o, classNonZero); h != NoFrame {
			return h, o, true
		}
	}
	return NoFrame, 0, false
}

// PopNonZeroBlockUpTo behaves like PopNonZeroBlock but never returns a
// block larger than maxOrder, splitting bigger ones if needed. Split halves
// are reinserted with content-derived classes, so a half that happens to be
// all-zero goes straight back to the zero lists rather than being returned
// for redundant clearing. This lets the rate-limited pre-zero thread take
// work in bounded chunks.
func (a *Allocator) PopNonZeroBlockUpTo(maxOrder int) (head FrameID, order int, ok bool) {
	if maxOrder > MaxOrder {
		maxOrder = MaxOrder
	}
	if maxOrder < 0 {
		maxOrder = 0
	}
	for {
		// Largest directly-usable block first.
		for o := maxOrder; o >= 0; o-- {
			if h := a.popFree(o, classNonZero); h != NoFrame {
				return h, o, true
			}
		}
		// Split one larger non-zero block one level down, reclassifying
		// both halves from their contents, then retry. Each split strictly
		// reduces the larger blocks, so this terminates.
		split := false
		for o := maxOrder + 1; o <= MaxOrder; o++ {
			h := a.popFree(o, classNonZero)
			if h == NoFrame {
				continue
			}
			a.insertFree(h, o-1)
			a.insertFree(h+FrameID(1)<<(o-1), o-1)
			split = true
			break
		}
		if !split {
			return NoFrame, 0, false
		}
	}
}

// InsertZeroBlock reinserts a block previously taken with PopNonZeroBlock
// after its contents have been cleared. It updates per-frame content bits
// and the zero-page accounting.
func (a *Allocator) InsertZeroBlock(head FrameID, order int) {
	n := int64(1) << order
	already := a.countBlockZero(head, order)
	a.setBlockZero(head, order)
	a.zeroFreePages += Pages(n - already)
	a.coalesce(head, order)
}

// NonZeroFreePages reports free pages whose contents are not known zero —
// the pre-zero thread's backlog.
func (a *Allocator) NonZeroFreePages() Pages { return a.freePages - a.zeroFreePages }
