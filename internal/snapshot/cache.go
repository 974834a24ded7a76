// Package snapshot is the process-wide warm-up cache behind the experiments
// harness: building and fragmenting a machine is a shared prefix of every
// (workload, policy) run in the recovery experiments, so it is performed once
// per distinct configuration and replayed per policy with kernel.Snapshot /
// Snapshot.Fork. The paper's recovery comparisons (§4, Figs. 5–7, Tables
// 3/5) start every contender from an identical fragmented state; the cache
// makes that identity literal — one warm-up, N forks — without changing a
// single output byte (the fork path is golden-enforced bit-identical to
// fresh construction).
//
// Concurrency: the cache is shared across the parallel runner's workers.
// Warm-ups are single-flight (internal/cache) — concurrent requests for the
// same key build once and share the frozen Snapshot — and forking a frozen
// Snapshot is read-only, so concurrent Forks need no further locking.
//
// Determinism: warm-ups are built with a nil policy and tracing disabled.
// This is sound because no policy touches substrate state or consumes the
// engine RNG at Attach (they only schedule daemons, which cannot have fired
// at snapshot time), and tracing is passive by contract — so the machine
// state at the snapshot point is bit-identical to the state a fresh
// policy-attached, optionally-traced machine has after the same warm-up.
package snapshot

import (
	"hawkeye/internal/cache"
	"hawkeye/internal/introspect"
	"hawkeye/internal/kernel"
)

// Key identifies one warm-up: the full machine configuration (with the
// non-comparable Engine/Trace pointers normalized to nil) plus the
// fragmentation parameters. kernel.Config is comparable — tlb.Config and
// fault.Model are flat scalar structs — so the key can index a map directly.
type Key struct {
	Cfg    kernel.Config
	Keep   float64
	Pinned float64
}

// Cache holds the warm-up snapshots, budgeted by Snapshot.Bytes and evicted
// least-recently-forked first. Its process-wide size is observable live as
// snapshot_cache_entries, snapshot_cache_bytes and snapshot_cache_evict on
// the introspect registry (the debug server's /metrics).
var Cache = cache.New[Key, *kernel.Snapshot]("snapshot_cache")

// For returns the snapshot of a machine built from cfg and fragmented with
// FragmentMemoryPinned(keep, pinned) (keep <= 0 means no fragmentation:
// freshly constructed state). The first caller for a key builds the warm-up;
// everyone else shares the cached result. cfg.Engine must be nil — machines
// co-simulated on a shared engine cannot be snapshotted — and cfg.Trace is
// ignored for the warm-up (forks attach their own tracing).
func For(cfg kernel.Config, keep, pinned float64) *kernel.Snapshot {
	snap, _ := forUse(cfg, keep, pinned)
	return snap
}

// forUse is For that also reports how many snapshots this call evicted.
func forUse(cfg kernel.Config, keep, pinned float64) (*kernel.Snapshot, int64) {
	if cfg.Engine != nil {
		panic("snapshot: cache requested for a shared-engine config")
	}
	cfg.Trace = nil
	return Cache.Get(Key{Cfg: cfg, Keep: keep, Pinned: pinned}, func() *kernel.Snapshot {
		k := kernel.New(cfg, nil)
		if keep > 0 {
			k.FragmentMemoryPinned(keep, pinned)
		}
		return k.Snapshot()
	})
}

// Fork is the harness entry point: it resolves (builds or reuses) the warm-up
// snapshot for cfg and forks a machine from it with the given policy and
// cfg.Trace attached. The result is bit-identical to
//
//	k := kernel.New(cfg, pol)
//	if keep > 0 { k.FragmentMemoryPinned(keep, pinned) }
//
// on a fresh machine, minus the warm-up cost on every call after the first.
//
// When tracing is attached, the forked machine's recorder carries the cache
// counters: snapshot_cache_bytes (the frozen footprint of the image this
// machine forked from — per-snapshot, hence deterministic) and
// snapshot_cache_evict (snapshots this fork's cache visit evicted; always 0
// under the default unlimited budget).
func Fork(cfg kernel.Config, pol kernel.Policy, keep, pinned float64) *kernel.Kernel {
	snap, evicted := forUse(cfg, keep, pinned)
	k := snap.Fork(pol, cfg.Trace)
	introspect.CountCacheAttach(k.Trace, "snapshot_cache", snap.Bytes(), evicted)
	return k
}
