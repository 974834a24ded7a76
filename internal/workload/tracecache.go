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
	"sync"

	"hawkeye/internal/introspect"
	"hawkeye/internal/kernel"
	"hawkeye/internal/trace"
)

// Like the snapshot cache, this cache's process-wide size is observable
// live: trace_cache_entries, trace_cache_bytes and trace_cache_evict on the
// introspect registry. replayHits is the process-wide twin of the per-run
// trace_replay_hits counter — the scrape's collision rule makes it the one
// /metrics reports, so it also covers machines whose recorders have been
// detached or were never traced.
func init() {
	introspect.RegisterCache("trace_cache", func() introspect.CacheStats {
		s := TraceCacheStatsNow()
		return introspect.CacheStats{
			Entries:       s.Entries,
			ResidentBytes: s.ResidentBytes,
			Evictions:     s.Evictions,
		}
	})
}

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

type traceEntry struct {
	tr *Trace
	// lastUse is the cache-wide sequence number of the entry's most recent
	// attach, guarded by tmu. Eviction removes the entry with the smallest
	// lastUse.
	lastUse int64
}

var (
	tmu      sync.Mutex
	tentries = make(map[TraceKey]*traceEntry)

	// tbudgetBytes caps the summed Trace.Bytes of cached traces; 0 (the
	// default) means unlimited. tseq and tevictions are cumulative counters
	// guarded by tmu.
	tbudgetBytes int64
	tseq         int64
	tevictions   int64
)

// TraceFor returns the process-wide trace for key, creating an empty one on
// first use, and reports how many traces this call evicted under the byte
// budget. The caller's cfg must have Engine and Trace nil-normalized
// (TraceFor enforces it by clearing both).
func TraceFor(key TraceKey) (*Trace, int64) {
	key.Cfg.Engine = nil
	key.Cfg.Trace = nil
	tmu.Lock()
	defer tmu.Unlock()
	e := tentries[key]
	if e == nil {
		e = &traceEntry{tr: NewTrace(key.Geom)}
		tentries[key] = e
	}
	tseq++
	e.lastUse = tseq
	return e.tr, enforceTraceBudgetLocked(e)
}

// enforceTraceBudgetLocked evicts least-recently-attached traces until the
// cache fits the byte budget, never evicting keep (the entry being attached
// right now). Returns how many it evicted. Caller holds tmu.
func enforceTraceBudgetLocked(keep *traceEntry) int64 {
	if tbudgetBytes <= 0 {
		return 0
	}
	var n int64
	for traceResidentBytesLocked() > tbudgetBytes {
		var victimKey TraceKey
		var victim *traceEntry
		// Selection by unique minimum lastUse: iteration order over the map
		// cannot change which entry wins.
		for k, e := range tentries {
			if e == keep {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				//lint:allow determinism victim has the unique smallest lastUse
				victim, victimKey = e, k
			}
		}
		if victim == nil {
			break // nothing evictable: budget smaller than the live trace
		}
		delete(tentries, victimKey)
		tevictions++
		n++
	}
	return n
}

// traceResidentBytesLocked sums the cached traces' byte footprints. Caller
// holds tmu.
func traceResidentBytesLocked() int64 {
	var total int64
	for _, e := range tentries {
		//lint:allow determinism order-insensitive integer sum
		total += e.tr.Bytes()
	}
	return total
}

// SetTraceCacheBudget caps the trace cache's resident bytes (as reported by
// Trace.Bytes); 0 restores the default, unlimited. Lowering the budget
// evicts immediately. As with the snapshot cache, a finite budget makes hit
// and eviction counts timing-dependent across parallel workers; simulation
// outputs are bit-identical regardless, because replayed and re-captured
// streams are the same stream.
func SetTraceCacheBudget(n int64) {
	tmu.Lock()
	defer tmu.Unlock()
	tbudgetBytes = n
	enforceTraceBudgetLocked(nil)
}

// TraceCacheStats is a point-in-time view of the trace cache.
type TraceCacheStats struct {
	Entries       int   // cached traces
	ResidentBytes int64 // summed Trace.Bytes of cached traces
	Evictions     int64 // cumulative evictions since process start / Reset
}

// TraceCacheStatsNow reports the cache's current size and cumulative
// eviction count.
func TraceCacheStatsNow() TraceCacheStats {
	tmu.Lock()
	defer tmu.Unlock()
	return TraceCacheStats{
		Entries:       len(tentries),
		ResidentBytes: traceResidentBytesLocked(),
		Evictions:     tevictions,
	}
}

// ResetTraceCache drops every cached trace and zeroes the recency/eviction
// counters (test isolation / memory release). The byte budget is
// configuration, not cache state, and survives Reset.
func ResetTraceCache() {
	tmu.Lock()
	tentries = make(map[TraceKey]*traceEntry)
	tseq = 0
	tevictions = 0
	tmu.Unlock()
}

// AttachReplay swaps the instance's steady phase onto the process-wide
// trace for key, so its quanta replay the recorded stream instead of
// re-sampling it (capturing on first use). It refuses — returning false,
// leaving the instance untouched — when the program's shape doesn't
// guarantee the stream-identity contract: replay requires a Phased program
// whose only sampler consumer is a single Steady phase over the instance's
// sampler, with every other phase known not to touch the process RNG.
//
// rec (nil-safe) receives the cache counters: trace_cache_bytes (the
// trace's footprint at attach time), trace_cache_evict (traces this attach
// evicted under the byte budget) and trace_replay_hits (chunks later served
// from the record to this machine's samplers).
func (inst *Instance) AttachReplay(key TraceKey, rec *trace.Recorder) bool {
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
	tr, evicted := TraceFor(key)
	st.Source = NewReplaySampler(tr, rec.Counter("trace_replay_hits"))
	introspect.CountCacheAttach(rec, "trace_cache", tr.Bytes(), evicted)
	return true
}
