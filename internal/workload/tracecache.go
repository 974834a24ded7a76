package workload

// Process-wide trace cache, the sibling of internal/snapshot's warm-up
// cache: where the snapshot cache shares the build-and-fragment prefix of a
// sweep's machines, this cache shares their steady-state access streams.
// Keys carry everything the stream depends on — the full machine
// configuration (Seed, SamplesPerQuantum, fragmentation parameters — the
// fragmentation fork advances the engine RNG the process streams fork
// from), the sampler geometry, and the process's spawn index (each Spawn
// forks the engine RNG once, so the i-th spawned process's stream differs
// from the j-th's). Entries are evicted least-recently-attached under a
// byte budget, like the snapshot cache; an evicted trace stays usable by
// the samplers already attached to it and is simply re-captured by the
// next cell that needs it.

import (
	"hawkeye/internal/cache"
	"hawkeye/internal/introspect"
	"hawkeye/internal/kernel"
)

// replayHits counts the chunks served from a recorded trace, over the whole
// process (trace_replay_hits on /metrics). It is not a machine's figure:
// whether a chunk was captured or replayed depends on which machine reached
// it first, so a machine's vmstat does not carry it.
var replayHits = introspect.GetCounter("trace_replay_hits")

// TraceKey identifies one process access stream within a sweep: machine
// configuration (Engine/Trace pointers normalized to nil — they do not
// affect the stream), fragmentation parameters, sampler geometry, and the
// process's spawn index on its machine.
type TraceKey struct {
	Cfg       kernel.Config
	Keep      float64
	Pinned    float64
	Geom      Geometry
	ProcIndex int
}

// TraceCache holds the recorded access streams, budgeted by Trace.Bytes
// (read afresh at every use, so a trace's growth while it is captured is
// charged at the next attach) and evicted least-recently-attached first.
// Its process-wide size is observable live as trace_cache_entries,
// trace_cache_bytes and trace_cache_evict on the introspect registry.
var TraceCache = cache.New[TraceKey, *Trace]("trace_cache")

// TraceFor returns the process-wide trace for key, creating an empty one on
// first use. The caller's cfg must have Engine and Trace nil-normalized
// (TraceFor enforces it by clearing both).
func TraceFor(key TraceKey) *Trace {
	key.Cfg.Engine = nil
	key.Cfg.Trace = nil
	return TraceCache.Get(key, func() *Trace { return NewTrace(key.Geom) })
}

// AttachReplay swaps the instance's steady phase onto the process-wide
// trace for key, so its quanta replay the recorded stream instead of
// re-sampling it (capturing on first use). It refuses — returning false,
// leaving the instance untouched — when the program's shape doesn't
// guarantee the stream-identity contract: replay requires a Phased program
// whose only sampler consumer is a single Steady phase over the instance's
// sampler, with every other phase known not to touch the process RNG.
// Replay leaves no mark on the machine's vmstat; the cache's figures and
// trace_replay_hits are process-wide, on the introspect registry.
func (inst *Instance) AttachReplay(key TraceKey) bool {
	if inst.Sampler == nil || inst.Sampler.Geometry() != key.Geom {
		return false
	}
	ph, ok := inst.Program.(*Phased)
	if !ok {
		return false
	}
	var st *Steady
	for _, phase := range ph.Phases {
		switch v := phase.(type) {
		case *Steady:
			if st != nil || v.Sampler != inst.Sampler {
				return false
			}
			st = v
		case *Populate, *Free, *Sleep:
			// These phases never consume the process RNG.
		default:
			return false
		}
	}
	if st == nil {
		return false
	}
	st.Source = NewReplaySampler(TraceFor(key))
	return true
}
