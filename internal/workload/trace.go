package workload

// Record-once / replay-many access traces. A sweep grid runs the same
// (workload, seed) stream under many policies; the stream is a pure
// function of the sampler geometry and the process RNG — kernel work never
// consumes the process RNG, and no policy touches the sampler — so every
// cell of a (policy × threshold) grid re-synthesizes the identical
// run-length trace. A Trace captures that stream once, chunk by chunk, and
// a ReplaySampler serves it back with zero RNG work and zero allocation.
//
// Chunking follows the batched execution path exactly: steadyRunBatched
// draws a constant `samples` per quantum and merges runs only within one
// SampleRun call, so the trace records one chunk per quantum-sized call and
// replay reproduces the per-call run boundaries bit for bit.
//
// Stream-identity contract: every chunk stores the RNG state before and
// after its capture. Replay asserts the consumer's RNG is exactly at the
// recorded pre-state, serves the decoded runs, and jumps the RNG to the
// recorded post-state — so a replayed consumer is indistinguishable,
// state-wise, from one that sampled live. Any mismatch (a policy consumed
// the process RNG, a different samples-per-quantum, a scalar-path Sample
// call, an out-of-range VPN) permanently drops the consumer to a live
// fallback Sampler that was kept synchronized at every chunk boundary, so
// outputs stay byte-identical even when replay cannot be used.
//
// Traces extend lazily: cells consume different numbers of quanta (policies
// accrue work at different rates), so the first consumer to reach an
// uncaptured chunk extends the trace under its lock using the trace-owned
// master sampler and RNG. Published chunks are immutable; concurrent
// replayers read them without locking beyond the descriptor fetch.

import (
	"sync"

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
// of its n samples (as slices into the trace's arena) and the stream state
// around it. pre/post are the RNG states before/after the chunk's draws;
// seqPos/seqCnt are the master sampler's Sequential dwell state after the
// chunk, which a fallback sampler needs to continue the stream live.
type traceChunk struct {
	pre    [4]uint64
	post   [4]uint64
	seqPos int64
	seqCnt int

	starts []uint32 // absolute VPNs (asserted to fit 32 bits at capture)
	counts []uint32
	writes []uint8 // 0 = read run, 1 = write run
}

// traceChunkOverhead approximates the heap cost of one chunk descriptor for
// byte budgeting (three slice headers + two states + dwell state).
const traceChunkOverhead = 128

// arenaSlabElems is the granularity of arena growth: one allocation holds
// the starts+counts words (and a sibling byte slab the write flags) for
// many chunks, so capture allocates a handful of slabs per trace rather
// than per chunk.
const arenaSlabElems = 1 << 16

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

	// Arena slabs: starts and counts of a chunk share one []uint32 (starts
	// first, counts after), write flags live in a parallel []uint8. Chunk
	// descriptors slice into the slab current at capture time; later slab
	// growth never moves published data.
	u32   []uint32
	u8    []uint8
	bytes int64
}

// NewTrace returns an empty trace for one sampler geometry. The first
// SampleRun served through it adopts the consumer's RNG state and chunk
// size.
func NewTrace(g Geometry) *Trace {
	return &Trace{geom: g, master: g.sampler()}
}

// Geom returns the geometry the trace records.
func (t *Trace) Geom() Geometry { return t.geom }

// Bytes reports the trace's approximate heap footprint: arena slab
// capacity plus per-chunk descriptor overhead. Monotonically non-decreasing
// as the trace extends.
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

// reserve carves n uint32 pairs and n bytes out of the arena, growing it
// slab-wise when exhausted. Caller holds t.mu.
func (t *Trace) reserve(n int) (u32 []uint32, u8 []uint8) {
	need32 := 2 * n
	if cap(t.u32)-len(t.u32) < need32 {
		size := arenaSlabElems
		if size < need32 {
			size = need32
		}
		t.u32 = make([]uint32, 0, size)
		t.bytes += int64(4 * size)
	}
	if cap(t.u8)-len(t.u8) < n {
		size := arenaSlabElems
		if size < n {
			size = n
		}
		t.u8 = make([]uint8, 0, size)
		t.bytes += int64(size)
	}
	lo32 := len(t.u32)
	t.u32 = t.u32[:lo32+need32]
	lo8 := len(t.u8)
	t.u8 = t.u8[:lo8+n]
	return t.u32[lo32 : lo32+need32 : lo32+need32], t.u8[lo8 : lo8+n : lo8+n]
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
	starts, writes := t.reserve(len(runs))
	counts := starts[len(runs):]
	starts = starts[:len(runs):len(runs)]
	for i := range runs {
		v := uint64(runs[i].Start)
		if v >= 1<<32 || runs[i].Stride != 0 {
			// Unencodable stream: disable the trace rather than serve a
			// lossy record. Consumers fall back to live sampling.
			t.broken = true
			t.chunks = nil
			runs = runs[:0]
			captureBufPool.Put(&runs)
			return traceChunk{}, false, false
		}
		starts[i] = uint32(v)
		counts[i] = uint32(runs[i].Count)
		if runs[i].Write {
			writes[i] = 1
		}
	}
	ch = traceChunk{
		pre:    pre,
		post:   t.rng.State(),
		seqPos: t.master.seqPos,
		seqCnt: t.master.seqCnt,
		starts: starts,
		counts: counts,
		writes: writes,
	}
	t.chunks = append(t.chunks, ch)
	t.bytes += traceChunkOverhead
	runs = runs[:0]
	captureBufPool.Put(&runs)
	return ch, false, true
}

// ReplaySampler implements kernel.RunSampler over a Trace: each SampleRun
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

var _ kernel.RunSampler = (*ReplaySampler)(nil)

// NewReplaySampler returns a replay cursor at the top of the trace. hits
// (nil-safe) counts chunks served from the record.
func NewReplaySampler(t *Trace, hits *trace.Counter) *ReplaySampler {
	return &ReplaySampler{t: t, live: t.geom.sampler(), hits: hits}
}

// Profile implements kernel.AccessSampler.
func (rs *ReplaySampler) Profile() kernel.AccessProfile { return rs.live.Prof }

// Sample implements kernel.AccessSampler. A scalar draw cannot be served
// from the run-length record, so the sampler permanently drops to its live
// fallback — which is exactly at the stream position replay left it.
func (rs *ReplaySampler) Sample(r *sim.Rand) (vmm.VPN, bool) {
	rs.liveMode = true
	return rs.live.Sample(r)
}

// SampleRun implements kernel.RunSampler. Replay serves the next recorded
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
			for i := range ch.starts {
				buf = append(buf, kernel.AccessRun{
					Start: vmm.VPN(ch.starts[i]),
					Count: int(ch.counts[i]),
					Write: ch.writes[i] != 0,
				})
			}
			return buf
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
