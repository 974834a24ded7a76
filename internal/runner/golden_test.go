package runner

import (
	"testing"

	"hawkeye/internal/experiments"
)

// TestCachedMatchesUncached is the fast-path equivalence gate: every
// registered experiment runs twice in quick mode — once on the reference
// path, with NoSnapshotCache building and fragmenting every machine from
// scratch and NoTraceCache sampling every access stream live, and once with
// both process-wide caches on, forking fragmented machines from snapshots
// and replaying recorded streams — and the rendered tables must be
// byte-identical. The caches earn their speedup purely by reusing state the
// reference path would recompute, so any divergence (a substrate field
// missed by a clone, a chunk served at the wrong RNG state, an event
// scheduled in a different order) is a bug, not noise.
func TestCachedMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice; skipped in -short")
	}
	if raceEnabled {
		// The comparison is about deterministic output equality, which race
		// instrumentation cannot affect; under -race the double full run
		// blows the package test timeout without adding coverage (the race
		// suite still executes every experiment, and concurrent forks, via
		// the parallel-runner tests).
		t.Skip("skipped under -race: ~10x slower and race-insensitive by construction")
	}
	ids := experiments.IDs()
	opts := testOpts()

	refOpts := opts
	refOpts.NoSnapshotCache = true
	refOpts.NoTraceCache = true
	ref := make(map[string]string, len(ids))
	for _, res := range Run(ids, refOpts, 0) {
		if res.Error != "" {
			t.Fatalf("uncached %s: %s", res.ID, res.Error)
		}
		ref[res.ID] = res.Table
	}

	for _, res := range Run(ids, opts, 0) {
		if res.Error != "" {
			t.Fatalf("cached %s: %s", res.ID, res.Error)
		}
		if res.Table != ref[res.ID] {
			t.Errorf("%s: cached output differs from the uncached reference\nuncached:\n%s\ncached:\n%s",
				res.ID, ref[res.ID], res.Table)
		}
	}
}
