package runner

import (
	"bytes"
	"encoding/json"
	"testing"

	"hawkeye/internal/experiments"
	"hawkeye/internal/trace"
	"hawkeye/internal/workload"
)

// TestSweepReplayMatchesLive is the trace record/replay equivalence gate:
// the same sweep grid runs three times — once with NoTraceCache forcing
// live sampling per cell, once replaying every cell's access stream from
// the process-wide trace cache, and once replaying with event tracing on
// every cell's machine — and the rendered CSV and JSON reports must be
// byte-identical. Replay earns its speedup purely by serving the exact run
// sequence live sampling would synthesize (and jumping the RNG over it), so
// any divergence — a stream the cache key fails to separate, a chunk served
// at the wrong RNG state, a fallback sampler out of sync — is a bug, not
// noise; and tracing is passive, so a traced cell must report what a plain
// one does. Wall time is zeroed before comparing; it is the one field that
// is not a pure function of the simulated results.
func TestSweepReplayMatchesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep grid three times; skipped in -short")
	}
	workload.TraceCache.Reset()
	defer workload.TraceCache.Reset()

	spec := experiments.SweepSpec{
		Workload:   "graph500",
		Policies:   []string{"linux-4k", "linux", "ingens", "hawkeye-pmu"},
		Thresholds: []float64{0.3, 0.9},
		Seeds:      2,
		FragKeep:   0.15,
	}
	opts := experiments.Options{Scale: 0.02, Quick: true, Seed: 1}

	liveOpts := opts
	liveOpts.NoTraceCache = true
	live := RunSweep(spec, liveOpts, 2)
	replayed := RunSweep(spec, opts, 2)
	tracedOpts := opts
	tracedOpts.Trace = &trace.Config{}
	traced := RunSweep(spec, tracedOpts, 2)

	for _, rep := range []*SweepReport{live, replayed, traced} {
		for _, row := range rep.Rows {
			if row.Error != "" {
				t.Fatalf("cell %s/%g/seed=%d: %s", row.Policy, row.Threshold, row.Seed, row.Error)
			}
		}
		rep.TotalWallSeconds = 0
	}

	render := func(r *SweepReport) (string, string) {
		var csv bytes.Buffer
		if err := r.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		js, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return csv.String(), string(js)
	}
	liveCSV, liveJSON := render(live)
	replayCSV, replayJSON := render(replayed)
	if replayCSV != liveCSV {
		t.Errorf("replayed sweep CSV differs from live sampling\nlive:\n%s\nreplayed:\n%s", liveCSV, replayCSV)
	}
	if replayJSON != liveJSON {
		t.Errorf("replayed sweep JSON report differs from live sampling")
	}
	tracedCSV, tracedJSON := render(traced)
	if tracedCSV != liveCSV {
		t.Errorf("traced sweep CSV differs from live sampling\nlive:\n%s\ntraced:\n%s", liveCSV, tracedCSV)
	}
	if tracedJSON != liveJSON {
		t.Errorf("traced sweep JSON report differs from live sampling")
	}
	if st := workload.TraceCache.Stats(); st.Entries == 0 {
		t.Error("replayed sweep recorded no traces — replay never engaged")
	}
}
