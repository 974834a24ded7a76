package runner

import (
	"runtime"
	"strings"
	"testing"

	"hawkeye/internal/experiments"
)

// testOpts keeps the determinism experiments fast: a small machine, quick
// phases, a non-default seed so any accidental seed-dropping shows up.
func testOpts() experiments.Options {
	return experiments.Options{Scale: 0.02, Seed: 7, Quick: true}
}

// TestParallelMatchesSerial runs three representative experiments (a
// native recovery figure whose machines fan out, an NPB results table, and
// a virtualized figure) serially and via the worker pool with the same
// seed, and requires the rendered tables to be byte-identical. The serial
// reference runs at GOMAXPROCS 1, where every fan-out runs inline; on a
// host with more CPUs than workers, fig5's machines also run side by side
// in the pooled run. A small policy sweep is held to the same contract:
// RunSweep on one worker and on four must emit byte-identical CSV.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation; skipped in -short")
	}
	ids := []string{"fig5", "table3", "fig9"}
	opts := testOpts()

	serial := make([]string, len(ids))
	withProcs(1, func() {
		for i, id := range ids {
			tab, err := experiments.Run(id, opts)
			if err != nil {
				t.Fatalf("serial %s: %v", id, err)
			}
			serial[i] = tab.String()
		}
	})

	results := Run(ids, opts, len(ids))
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("parallel %s: %s", res.ID, res.Error)
		}
		if res.Table != serial[i] {
			t.Errorf("%s: parallel table differs from serial run\nserial:\n%s\nparallel:\n%s",
				res.ID, serial[i], res.Table)
		}
		if res.WallSeconds <= 0 {
			t.Errorf("%s: wall time not recorded", res.ID)
		}
	}

	spec := experiments.SweepSpec{
		Workload:   "graph500",
		Policies:   []string{"linux", "hawkeye-pmu"},
		Thresholds: []float64{0.4, 0.8},
		Seeds:      1,
		FragKeep:   0.15,
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("sweep spec: %v", err)
	}
	sweepCSV := func(workers int) string {
		var b strings.Builder
		if err := RunSweep(spec, opts, workers).WriteCSV(&b); err != nil {
			t.Fatalf("sweep csv (%d workers): %v", workers, err)
		}
		return b.String()
	}
	one, four := sweepCSV(1), sweepCSV(4)
	if one != four {
		t.Errorf("sweep rows differ between 1 and 4 workers\nserial:\n%s\nparallel:\n%s", one, four)
	}
	if n := strings.Count(one, "\n"); n != 1+len(spec.Policies)*len(spec.Thresholds) {
		t.Errorf("sweep emitted %d lines, want header + %d rows", n, len(spec.Policies)*len(spec.Thresholds))
	}
	for _, line := range strings.Split(strings.TrimSuffix(one, "\n"), "\n")[1:] {
		if !strings.HasSuffix(line, ",") {
			t.Errorf("sweep row carries an error: %s", line)
		}
	}
}

// withProcs runs f at GOMAXPROCS procs and hands the caller's value back.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestRunReportsMetrics checks the per-experiment counters the JSON report
// is built from.
func TestRunReportsMetrics(t *testing.T) {
	results := Run([]string{"table3"}, testOpts(), 1)
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	res := results[0]
	if res.Error != "" {
		t.Fatalf("table3: %s", res.Error)
	}
	if res.Events == 0 {
		t.Error("table3 fired no observed simulation events")
	}
	if res.EventsPerSec <= 0 {
		t.Error("events/sec not computed")
	}
	if res.AllocBytes == 0 {
		t.Error("alloc bytes not recorded")
	}
}

// TestRunUnknownID requires unknown experiments to fail soft, in order.
func TestRunUnknownID(t *testing.T) {
	results := Run([]string{"no-such-experiment", "fig3"}, testOpts(), 2)
	if results[0].ID != "no-such-experiment" || results[1].ID != "fig3" {
		t.Fatalf("results out of order: %q, %q", results[0].ID, results[1].ID)
	}
	if !strings.Contains(results[0].Error, "unknown id") {
		t.Errorf("unknown experiment error = %q", results[0].Error)
	}
	if results[1].Error != "" || results[1].Table == "" {
		t.Errorf("fig3 should have succeeded: %+v", results[1])
	}
}
