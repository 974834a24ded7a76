// Package runner executes registered experiments concurrently across a
// worker pool. Every experiment owns an isolated, deterministic
// kernel/engine stack seeded from its Options, so a parallel run with the
// same seed produces byte-identical tables to a serial run — the pool only
// changes wall-clock time, never results. The package also carries the
// benchmark-regression harness (bench_regress.go) that guards the
// simulator's tier-0 hot paths against performance regressions.
package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"hawkeye/internal/experiments"
	"hawkeye/internal/runner/pool"
)

// Result is the outcome of one experiment run.
type Result struct {
	ID    string `json:"id"`
	Table string `json:"table,omitempty"`
	Error string `json:"error,omitempty"`

	// WallSeconds is the real (host) time the experiment took.
	WallSeconds float64 `json:"wall_seconds"`
	// AllocBytes is the heap allocated during the run (delta of the Go
	// runtime's cumulative TotalAlloc). With workers > 1 concurrent
	// experiments bleed into each other's figure, so treat it as indicative
	// under parallelism and exact when serial.
	AllocBytes uint64 `json:"alloc_bytes"`
	// Events is the number of discrete simulation events the experiment
	// fired across all of its engines.
	Events uint64 `json:"events"`
	// EventsPerSec is Events / WallSeconds — the simulator's throughput on
	// this experiment.
	EventsPerSec float64 `json:"events_per_sec"`

	// Traces holds the experiment's trace recorders when tracing was
	// enabled (Options.Trace non-nil). In-memory only: callers export via
	// the trace package's writers; the JSON report never embeds events.
	Traces *experiments.TraceSet `json:"-"`
}

// Report is the JSON document hawkeye-bench -json emits.
type Report struct {
	Schema           string   `json:"schema"` // "hawkeye-bench/v1"
	Seed             uint64   `json:"seed"`
	Scale            float64  `json:"scale"`
	Quick            bool     `json:"quick"`
	Parallel         int      `json:"parallel"`
	GOMAXPROCS       int      `json:"gomaxprocs"`
	TotalWallSeconds float64  `json:"total_wall_seconds"`
	Results          []Result `json:"results"`
}

// Run executes the given experiment IDs on a pool of workers (workers < 1
// means GOMAXPROCS) and returns results in the order the IDs were given,
// regardless of completion order. Unknown IDs surface as Results with Error
// set rather than aborting the batch.
func Run(ids []string, opts experiments.Options, workers int) []Result {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, len(ids))
	pool.Run(len(ids), workers, func(i int) {
		results[i] = runOne(ids[i], opts)
	})
	return results
}

// runOne executes a single experiment with a private Metrics collector
// (and, when tracing is enabled, a private TraceSet).
func runOne(id string, opts experiments.Options) Result {
	opts.Metrics = experiments.NewMetrics()
	if opts.Trace != nil {
		opts.Traces = experiments.NewTraceSet()
	}
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	tab, err := experiments.Run(id, opts)
	wall := time.Since(start).Seconds()
	experimentLatency.Observe(time.Since(start))
	experimentsDone.Inc()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	res := Result{
		ID:          id,
		WallSeconds: wall,
		AllocBytes:  msAfter.TotalAlloc - msBefore.TotalAlloc,
		Events:      opts.Metrics.EventsFired(),
		Traces:      opts.Traces,
	}
	if wall > 0 {
		res.EventsPerSec = float64(res.Events) / wall
	}
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Table = tab.String()
	return res
}

// NewReport assembles the JSON report for a finished batch.
func NewReport(opts experiments.Options, workers int, totalWall time.Duration, results []Result) *Report {
	if workers < 1 {
		// Mirror Run: <1 means one worker per core. The report records the
		// effective pool size, not the raw flag value.
		workers = runtime.GOMAXPROCS(0)
	}
	return &Report{
		Schema:           "hawkeye-bench/v1",
		Seed:             opts.Seed,
		Scale:            opts.Scale,
		Quick:            opts.Quick,
		Parallel:         workers,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		TotalWallSeconds: totalWall.Seconds(),
		Results:          results,
	}
}

// WriteJSON writes the report to path (or stdout when path is "-").
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: marshal report: %w", err)
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
