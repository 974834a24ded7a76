package workload

// Record-once / replay-many access traces. A sweep grid runs the same
// (workload, seed) stream under many policies; the stream is a pure
// function of the sampler geometry and the process RNG — kernel work never
// consumes the process RNG, and no policy touches the sampler — so every
// cell of a (policy × threshold) grid re-synthesizes the identical
// run-length trace. A Trace captures that stream once, chunk by chunk, and
// a ReplaySampler serves it back with zero RNG work and zero allocation.
//
// Chunking follows kernel.SteadyRun exactly: it draws a constant `samples`
// per quantum in one SampleRun call, which merges runs only within that
// call, so the trace records one chunk per quantum and replay reproduces
// the per-call run boundaries bit for bit.
//
// Stream-identity contract: every chunk stores the RNG state before and
// after its capture. Replay asserts the consumer's RNG is exactly at the
// recorded pre-state, serves the decoded runs, and jumps the RNG to the
// recorded post-state — so a replayed consumer is indistinguishable,
// state-wise, from one that sampled live. Any mismatch (a policy consumed
// the process RNG, a different samples-per-quantum, a run the trace layout
// cannot hold) permanently drops the consumer to a live fallback Sampler
// that was kept synchronized at every chunk boundary, so outputs stay
// byte-identical even when replay cannot be used.
//
// Traces extend lazily: cells consume different numbers of quanta (policies
// accrue work at different rates), so the first consumer to reach an
// uncaptured chunk extends the trace under its lock using the trace-owned
// master sampler and RNG. Published chunks are immutable; concurrent
// replayers read them without locking beyond the descriptor fetch.

import (
	"math"
	"slices"
	"sync"
	"unsafe"

	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/trace"
	"hawkeye/internal/vmm"
)

// Geometry is the comparable sampling configuration of a Sampler — every
// field that determines its stream for a given RNG. Two samplers with equal
// Geometry produce identical streams from identical RNG states.
type Geometry struct {
	Base            vmm.VPN
	Pages           mem.Pages
	Kind            Pattern
	HotFrac         float64
	HotProb         float64
	AccessesPerPage int
	WriteFrac       float64
	Prof            kernel.AccessProfile
}

// Geometry returns the sampler's stream-determining configuration.
func (s *Sampler) Geometry() Geometry {
	return Geometry{
		Base:            s.Base,
		Pages:           s.Pages,
		Kind:            s.Kind,
		HotFrac:         s.HotFrac,
		HotProb:         s.HotProb,
		AccessesPerPage: s.AccessesPerPage,
		WriteFrac:       s.WriteFrac,
		Prof:            s.Prof,
	}
}

// sampler builds a fresh Sampler in the geometry's initial state — the
// state every cell's sampler is in before its first draw.
func (g Geometry) sampler() Sampler {
	return Sampler{
		Base:            g.Base,
		Pages:           g.Pages,
		Kind:            g.Kind,
		HotFrac:         g.HotFrac,
		HotProb:         g.HotProb,
		AccessesPerPage: g.AccessesPerPage,
		WriteFrac:       g.WriteFrac,
		Prof:            g.Prof,
	}
}

// traceChunk describes one captured SampleRun call: the run-length records
// of its n samples (as columns sliced out of the trace's arena) and the
// stream state around it. pre/post are the RNG states before/after the
// chunk's draws; seqPos/seqCnt are the master sampler's Sequential dwell
// state after the chunk, which a fallback sampler needs to continue the
// stream live.
type traceChunk struct {
	pre    [4]uint64
	post   [4]uint64
	seqPos int64
	seqCnt int

	// Run starts as offsets from Geometry.Base. Exactly one of the two is
	// non-nil, fixed per trace by its geometry (see Trace.wide).
	off16 []uint16
	off32 []uint32
	// writes holds one bit per run (bit i%64 of word i/64 set = write run).
	writes []uint64
	// counts is nil when every run of the chunk has Count 1 — the common
	// case for Hotspot and Uniform streams, which merge only on chance
	// repeats.
	counts []uint32
}

// traceChunkOverhead is the resident cost of one chunk descriptor, charged
// to Trace.Bytes on top of the arena slabs.
const traceChunkOverhead = int64(unsafe.Sizeof(traceChunk{}))

// narrowPages is the largest footprint whose run offsets fit a uint16.
const narrowPages = 1 << 16

// Arena slab bounds. Each column's slabs start at minSlabBytes and double
// up to maxSlabBytes, so a short trace reserves a few KiB per column and a
// long one allocates a few dozen slabs in all.
const (
	minSlabBytes = 4 << 10
	maxSlabBytes = 256 << 10
)

// slab is one column's append-only arena: carve hands out capacity-capped
// sub-slices of the current backing array, and a full array is retired
// rather than grown, so published columns never move and later carving
// never aliases them.
type slab[T uint16 | uint32 | uint64] struct{ buf []T }

// carve returns n zeroed elements, adding any new backing array's bytes to
// *bytes.
func (s *slab[T]) carve(n int, bytes *int64) []T {
	if cap(s.buf)-len(s.buf) < n {
		size := int(unsafe.Sizeof(T(0)))
		elems := max(min(2*cap(s.buf), maxSlabBytes/size), minSlabBytes/size, n)
		s.buf = make([]T, 0, elems)
		*bytes += int64(elems * size)
	}
	lo := len(s.buf)
	s.buf = s.buf[:lo+n]
	return s.buf[lo : lo+n : lo+n]
}

// Trace is an immutable-once-published, lazily extended run-length record
// of one sampler stream. Safe for concurrent use by any number of
// ReplaySamplers.
type Trace struct {
	mu     sync.Mutex
	geom   Geometry
	n      int     // samples per chunk; fixed by the first consumer
	master Sampler // trace-owned sampler carrying the capture stream state
	rng    sim.Rand
	broken bool // capture hit an unencodable stream; replay disabled
	chunks []traceChunk

	// wide selects uint32 run offsets, for footprints over narrowPages;
	// limit is one past the largest offset a run may have (the footprint,
	// capped at what the offset width holds).
	wide  bool
	limit uint64

	// Arena columns. Chunk descriptors slice into the slabs current at
	// capture time; later slab growth never moves published data.
	off16  slab[uint16]
	off32  slab[uint32]
	writes slab[uint64]
	counts slab[uint32]
	bytes  int64
}

// NewTrace returns an empty trace for one sampler geometry. The first
// SampleRun served through it adopts the consumer's RNG state and chunk
// size.
func NewTrace(g Geometry) *Trace {
	t := &Trace{geom: g, master: g.sampler(), wide: g.Pages > narrowPages}
	if g.Pages > 0 {
		t.limit = min(uint64(g.Pages), 1<<32)
	}
	return t
}

// Geom returns the geometry the trace records.
func (t *Trace) Geom() Geometry { return t.geom }

// Bytes reports the trace's heap footprint: arena slab capacity plus the
// per-chunk descriptors. Monotonically non-decreasing as the trace extends.
func (t *Trace) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// Chunks reports how many quanta have been captured so far.
func (t *Trace) Chunks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.chunks)
}

// captureBufPool recycles the scratch run buffers capture encodes from.
var captureBufPool sync.Pool

// encode stores runs as one chunk's columns in the arena. ok=false means
// the layout cannot hold some run exactly — a start outside [Base,
// Base+Pages) or a count that overflows 32 bits — and nothing is carved in
// that case. Caller holds t.mu.
func (t *Trace) encode(runs []kernel.AccessRun) (ch traceChunk, ok bool) {
	base := t.geom.Base
	ones := true
	for i := range runs {
		r := &runs[i]
		if uint64(r.Start-base) >= t.limit || uint64(r.Count) > math.MaxUint32 {
			return traceChunk{}, false
		}
		ones = ones && r.Count == 1
	}
	m := len(runs)
	if t.wide {
		ch.off32 = t.off32.carve(m, &t.bytes)
		for i := range runs {
			ch.off32[i] = uint32(runs[i].Start - base)
		}
	} else {
		ch.off16 = t.off16.carve(m, &t.bytes)
		for i := range runs {
			ch.off16[i] = uint16(runs[i].Start - base)
		}
	}
	ch.writes = t.writes.carve((m+63)/64, &t.bytes)
	for i := range runs {
		if runs[i].Write {
			ch.writes[i/64] |= 1 << (i % 64)
		}
	}
	if !ones {
		ch.counts = t.counts.carve(m, &t.bytes)
		for i := range runs {
			ch.counts[i] = uint32(runs[i].Count)
		}
	}
	return ch, true
}

// decode appends the chunk's runs to buf, allocating only if buf lacks the
// capacity.
func (ch *traceChunk) decode(base vmm.VPN, buf []kernel.AccessRun) []kernel.AccessRun {
	lo := len(buf)
	m := len(ch.off16) + len(ch.off32)
	buf = slices.Grow(buf, m)[:lo+m]
	out := buf[lo:]
	if ch.off32 == nil {
		decodeRuns(out, base, ch.off16, ch.writes)
	} else {
		decodeRuns(out, base, ch.off32, ch.writes)
	}
	for i, c := range ch.counts {
		out[i].Count = int(c)
	}
	return buf
}

// decodeRuns fills out, one run per offset, from a chunk's start offsets
// and write bits, with every count 1.
func decodeRuns[T uint16 | uint32](out []kernel.AccessRun, base vmm.VPN, offs []T, writes []uint64) {
	out = out[:len(offs)]
	for i, off := range offs {
		// Unsigned indexing keeps the bit lookup to a shift and a mask.
		bit := writes[uint(i)/64] >> (uint(i) % 64) & 1
		out[i] = kernel.AccessRun{Start: base + vmm.VPN(off), Count: 1, Write: bit != 0}
	}
}

// chunkFor returns chunk idx, capturing it first if it is one past the
// recorded prefix. ok=false means the consumer cannot be served from the
// trace (state mismatch, size mismatch, broken trace) and must go live;
// nothing is consumed from r in that case. hit reports whether the chunk
// was served from the record (false for the capturing call itself).
func (t *Trace) chunkFor(idx, n int, r *sim.Rand) (ch traceChunk, hit, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.broken || n <= 0 {
		return traceChunk{}, false, false
	}
	if t.n == 0 {
		t.n = n
		t.rng.SetState(r.State())
	}
	if n != t.n {
		return traceChunk{}, false, false
	}
	if idx < len(t.chunks) {
		ch = t.chunks[idx]
		if r.State() != ch.pre {
			return traceChunk{}, false, false
		}
		return ch, true, true
	}
	if idx > len(t.chunks) {
		return traceChunk{}, false, false
	}
	// Extend by one chunk. The consumer must be exactly at the capture
	// frontier's stream state; if it is not, its stream has diverged from
	// the recorded one and it must continue live.
	if r.State() != t.rng.State() {
		return traceChunk{}, false, false
	}
	pre := t.rng.State()
	var buf []kernel.AccessRun
	if b, bok := captureBufPool.Get().(*[]kernel.AccessRun); bok {
		buf = (*b)[:0]
	}
	runs := t.master.SampleRun(&t.rng, buf, n)
	ch, ok = t.encode(runs)
	runs = runs[:0]
	captureBufPool.Put(&runs)
	if !ok {
		// Unencodable stream: disable the trace rather than serve a lossy
		// record. Consumers fall back to live sampling.
		t.broken = true
		t.chunks = nil
		return traceChunk{}, false, false
	}
	ch.pre, ch.post = pre, t.rng.State()
	ch.seqPos, ch.seqCnt = t.master.seqPos, t.master.seqCnt
	t.chunks = append(t.chunks, ch)
	t.bytes += traceChunkOverhead
	return ch, false, true
}

// ReplaySampler implements kernel.AccessSampler over a Trace: each SampleRun
// call serves one recorded chunk — decoding straight from the arena with no
// RNG draws and no allocation beyond the caller's buffer — while keeping a
// live Sampler synchronized at every chunk boundary so the stream can
// continue live the moment replay becomes impossible. Not safe for
// concurrent use; each process gets its own.
type ReplaySampler struct {
	t        *Trace
	idx      int
	live     Sampler // fallback, synchronized at chunk boundaries
	liveMode bool
	hits     *trace.Counter // nil-safe: replayed-chunk tally
}

var _ kernel.AccessSampler = (*ReplaySampler)(nil)

// NewReplaySampler returns a replay cursor at the top of the trace. hits
// (nil-safe) counts chunks served from the record.
func NewReplaySampler(t *Trace, hits *trace.Counter) *ReplaySampler {
	return &ReplaySampler{t: t, live: t.geom.sampler(), hits: hits}
}

// Profile implements kernel.AccessSampler.
func (rs *ReplaySampler) Profile() kernel.AccessProfile { return rs.live.Prof }

// SampleRun implements kernel.AccessSampler. Replay serves the next recorded
// chunk if the consumer's RNG is exactly where the record expects it
// (capturing the chunk first when the cursor is at the frontier), then
// jumps the RNG over the recorded span. On any mismatch it falls back to
// live sampling — permanently, since a diverged stream can never rejoin
// the record.
func (rs *ReplaySampler) SampleRun(r *sim.Rand, buf []kernel.AccessRun, n int) []kernel.AccessRun {
	if !rs.liveMode {
		ch, hit, ok := rs.t.chunkFor(rs.idx, n, r)
		if ok {
			rs.idx++
			r.SetState(ch.post)
			rs.live.seqPos, rs.live.seqCnt = ch.seqPos, ch.seqCnt
			if hit {
				rs.hits.Inc()
				replayHits.Inc()
			}
			return ch.decode(rs.t.geom.Base, buf)
		}
		rs.liveMode = true
	}
	return rs.live.SampleRun(r, buf, n)
}

// Live reports whether the sampler has dropped to its live fallback.
func (rs *ReplaySampler) Live() bool { return rs.liveMode }

// Rewind resets the replay cursor to the top of the trace and returns the
// RNG state the stream starts from (the first chunk's pre-state). It is a
// benchmarking/testing aid — a consumer that rewinds must also jump its RNG
// to the returned state. Rewinding an empty trace returns ok=false.
func (rs *ReplaySampler) Rewind() (start [4]uint64, ok bool) {
	rs.t.mu.Lock()
	defer rs.t.mu.Unlock()
	if len(rs.t.chunks) == 0 {
		return start, false
	}
	rs.idx = 0
	rs.liveMode = false
	rs.live = rs.t.geom.sampler()
	return rs.t.chunks[0].pre, true
}
