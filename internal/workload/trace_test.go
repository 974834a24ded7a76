package workload

import (
	"testing"

	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/vmm"
)

// testGeometry is a graph500-shaped stream: hotspot with a write fraction,
// small enough to capture quickly.
func testGeometry() Geometry {
	return Geometry{
		Base:    0x100000,
		Pages:   4096,
		Kind:    Hotspot,
		HotFrac: 0.15,
		HotProb: 0.90,
		// WriteFrac > 0 exercises the write-draw short-circuit; Prof flows
		// through Profile() untouched.
		WriteFrac: 0.2,
		Prof:      kernel.AccessProfile{Locality: 0.8, CyclesPerAccess: 820},
	}
}

// drainRuns pulls chunks quanta of n samples each through a sampler.
func drainRuns(s kernel.AccessSampler, r *sim.Rand, chunks, n int) [][]kernel.AccessRun {
	out := make([][]kernel.AccessRun, chunks)
	for i := range out {
		out[i] = s.SampleRun(r, nil, n)
	}
	return out
}

// TestTraceReplayIdentity is the stream-identity contract in miniature:
// a replayed consumer must see the exact runs a live sampler produces and
// end with the exact RNG state live sampling would leave — the property that
// makes replayed sweeps byte-identical to live ones. The cases walk the
// edges of the trace layout: the uint16/uint32 offset-width switch, bases
// far from zero, stored counts, all-read and all-write streams, and chunks
// whose write bits end mid-word. None of them may drop to live.
func TestTraceReplayIdentity(t *testing.T) {
	hotspot := func(base vmm.VPN, pages mem.Pages) Geometry {
		g := testGeometry()
		g.Base, g.Pages = base, pages
		return g
	}
	writes := func(frac float64) Geometry {
		g := testGeometry()
		g.WriteFrac = frac
		return g
	}
	for _, tc := range []struct {
		name string
		geom Geometry
		n    int // samples per chunk
	}{
		{"graph500-shaped", testGeometry(), 512},
		{"pages-65536-uint16", hotspot(0x100000, 1<<16), 512},
		{"pages-65537-uint32", hotspot(0x100000, 1<<16+1), 512},
		{"base-zero", hotspot(0, 4096), 512},
		{"base-above-2^32", hotspot(1<<40+3, 4096), 512},
		{"sequential-counts", Geometry{Base: 0x200000, Pages: 4096, Kind: Sequential, AccessesPerPage: 8, WriteFrac: 0.2}, 512},
		{"all-reads", writes(0), 512},
		{"all-writes", writes(1), 512},
		{"chunk-not-multiple-of-64", testGeometry(), 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.geom
			const chunks = 20

			// Live reference stream.
			liveS := g.sampler()
			liveR := sim.NewRand(7)
			want := drainRuns(&liveS, liveR, chunks, tc.n)

			// First consumer captures (every chunkFor lands on the
			// frontier: zero hits), second replays the record.
			tr := NewTrace(g)
			if tr.wide != (g.Pages > 1<<16) {
				t.Fatalf("%d pages: wide offsets = %v", g.Pages, tr.wide)
			}
			for pass := 0; pass < 2; pass++ {
				rs := NewReplaySampler(tr)
				r := sim.NewRand(7)
				got := drainRuns(rs, r, chunks, tc.n)
				if rs.Live() {
					t.Fatalf("pass %d: replay sampler dropped to live fallback", pass)
				}
				if r.State() != liveR.State() {
					t.Fatalf("pass %d: RNG end state diverged from live sampling", pass)
				}
				for i := range want {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("pass %d chunk %d: %d runs, want %d", pass, i, len(got[i]), len(want[i]))
					}
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("pass %d chunk %d run %d: got %+v want %+v", pass, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
			if tr.Chunks() != chunks {
				t.Fatalf("trace holds %d chunks, want %d", tr.Chunks(), chunks)
			}
		})
	}
}

// TestTraceCapturePostState pins the capture side of the contract: each
// chunk's recorded post-state must equal the state the consumer's own RNG
// would reach by sampling live, so the SetState jump replay performs is a
// no-op relative to live execution.
func TestTraceCapturePostState(t *testing.T) {
	g := testGeometry()
	const n = 512

	liveS := g.sampler()
	liveR := sim.NewRand(3)

	tr := NewTrace(g)
	rs := NewReplaySampler(tr)
	r := sim.NewRand(3)
	for i := 0; i < 8; i++ {
		liveS.SampleRun(liveR, nil, n)
		rs.SampleRun(r, nil, n)
		if r.State() != liveR.State() {
			t.Fatalf("chunk %d: recorded post state != live RNG state", i)
		}
	}
}

// TestTraceReplayCountsHits verifies hit accounting on the process-wide
// trace_replay_hits counter: the capturing pass scores zero hits, each
// replaying pass one per chunk.
func TestTraceReplayCountsHits(t *testing.T) {
	g := testGeometry()
	const chunks, n = 6, 64
	tr := NewTrace(g)

	start := replayHits.Value()
	drainRuns(NewReplaySampler(tr), sim.NewRand(1), chunks, n)
	if got := replayHits.Value() - start; got != 0 {
		t.Fatalf("capturing pass scored %d hits, want 0", got)
	}
	drainRuns(NewReplaySampler(tr), sim.NewRand(1), chunks, n)
	if got := replayHits.Value() - start; got != int64(chunks) {
		t.Fatalf("replay pass scored %d hits, want %d", got, chunks)
	}
}

// TestTraceDivergedConsumerFallsBackLive is the safety net: a consumer whose
// RNG is not at the recorded pre-state must not be served the record — it
// drops to live sampling and produces exactly what its own stream dictates.
func TestTraceDivergedConsumerFallsBackLive(t *testing.T) {
	g := testGeometry()
	const chunks, n = 4, 128

	tr := NewTrace(g)
	drainRuns(NewReplaySampler(tr), sim.NewRand(1), chunks, n)

	// A consumer on a different seed: its stream never matches the record.
	wantS := g.sampler()
	wantR := sim.NewRand(99)
	want := drainRuns(&wantS, wantR, chunks, n)

	rs := NewReplaySampler(tr)
	r := sim.NewRand(99)
	got := drainRuns(rs, r, chunks, n)
	if !rs.Live() {
		t.Fatal("diverged consumer was not dropped to live fallback")
	}
	if r.State() != wantR.State() {
		t.Fatal("fallback RNG end state diverged from live sampling")
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("chunk %d: %d runs, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("chunk %d run %d: got %+v want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestTraceCacheBudgetEvicts exercises the byte-budget LRU: with a budget
// below two traces, attaching a second key evicts the first (least recently
// attached), and re-attaching the first re-captures it.
func TestTraceCacheBudgetEvicts(t *testing.T) {
	TraceCache.Reset()
	defer TraceCache.Reset()
	defer TraceCache.SetBudget(0)

	key := func(seed uint64) TraceKey {
		cfg := kernel.DefaultConfig()
		cfg.Seed = seed
		return TraceKey{Cfg: cfg, Keep: 0.15, Geom: testGeometry()}
	}

	grow := func(k TraceKey) *Trace {
		tr := TraceFor(k)
		drainRuns(NewReplaySampler(tr), sim.NewRand(k.Cfg.Seed), 4, 512)
		return tr
	}
	a := grow(key(1))
	TraceCache.SetBudget(a.Bytes() + a.Bytes()/2) // room for ~1.5 traces
	grow(key(2))
	// Traces grow after they are attached, so the budget bites at the next
	// attach: re-attaching key 2 makes it most-recent and evicts key 1.
	TraceFor(key(2))
	st := TraceCache.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after over-budget attach: %+v, want 1 entry / 1 eviction", st)
	}
	if tr := TraceFor(key(1)); tr == a {
		t.Fatal("evicted trace was returned again")
	}
}
