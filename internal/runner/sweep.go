package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"hawkeye/internal/experiments"
	"hawkeye/internal/runner/pool"
)

// SweepReport is the JSON document hawkeye-bench -sweep -json emits: one row
// per (policy, threshold, seed) cell, in deterministic grid order
// (policy-major, then threshold, then seed) regardless of which worker
// finished which cell first.
type SweepReport struct {
	Schema           string                 `json:"schema"` // "hawkeye-sweep/v1"
	Workload         string                 `json:"workload"`
	Seed             uint64                 `json:"seed"` // base seed; cells number up from it
	Scale            float64                `json:"scale"`
	Quick            bool                   `json:"quick"`
	FragKeep         float64                `json:"frag_keep"`
	Parallel         int                    `json:"parallel"`
	GOMAXPROCS       int                    `json:"gomaxprocs"`
	TotalWallSeconds float64                `json:"total_wall_seconds"`
	Rows             []experiments.SweepRow `json:"rows"`

	// CellLatency digests per-cell wall latency for the CLI's stderr
	// summary. Host-timing, like TotalWallSeconds — but excluded from the
	// JSON document entirely so replayed and live sweep reports stay
	// byte-comparable.
	CellLatency LatencySummary `json:"-"`
}

// RunSweep executes every cell of the sweep grid on a pool of workers
// (workers < 1 means GOMAXPROCS) and assembles the report. Cells are
// independent machines, so — like Run — the pool changes wall-clock time
// only: rows are written by grid index and are byte-identical to a serial
// sweep with the same options. Cell failures surface as rows with Error set
// rather than aborting the grid.
func RunSweep(spec experiments.SweepSpec, opts experiments.Options, workers int) *SweepReport {
	return RunSweepProgress(spec, opts, workers, nil)
}

// RunSweepProgress is RunSweep with a completion callback: after each cell
// finishes, progress (if non-nil) is called with the number of cells done so
// far and the grid total. Calls are serialized but arrive from worker
// goroutines, in completion order — not grid order — so the callback is for
// liveness reporting (the CLI's stderr progress line), never for output.
func RunSweepProgress(spec experiments.SweepSpec, opts experiments.Options, workers int, progress func(done, total int)) *SweepReport {
	opts = opts.WithDefaults()
	cells := spec.Cells(opts.Seed)
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}
	rows := make([]experiments.SweepRow, len(cells))
	var pmu sync.Mutex
	done := 0
	start := time.Now()
	latStart := sweepCellLatency.Snapshot()
	sweepCellsTotal.Store(int64(len(cells)))
	sweepQueueDepth.Store(int64(len(cells)))
	pool.Run(len(cells), workers, func(i int) {
		sweepQueueDepth.Add(-1)
		sweepWorkersBusy.Add(1)
		cellStart := time.Now()
		rows[i] = experiments.RunSweepCell(opts, spec, cells[i])
		sweepCellLatency.Observe(time.Since(cellStart))
		sweepWorkersBusy.Add(-1)
		sweepCellsDone.Inc()
		pmu.Lock()
		done++
		publishSweepProgress(done, len(cells), workers, start)
		if progress != nil {
			progress(done, len(cells))
		}
		pmu.Unlock()
	})
	return &SweepReport{
		Schema:           "hawkeye-sweep/v1",
		Workload:         spec.Workload,
		Seed:             opts.Seed,
		Scale:            opts.Scale,
		Quick:            opts.Quick,
		FragKeep:         spec.FragKeep,
		Parallel:         workers,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		TotalWallSeconds: time.Since(start).Seconds(),
		Rows:             rows,
		CellLatency:      summarize(latStart),
	}
}

// WriteJSON writes the report to path (or stdout when path is "-").
func (r *SweepReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: marshal sweep report: %w", err)
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// WriteCSV writes the rows as CSV. Floats use Go's shortest round-trip
// formatting, so the bytes are a pure function of the simulated results —
// two runs of the same sweep diff clean (the CI sweep-smoke step holds this
// with a byte-for-byte compare).
func (r *SweepReport) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "policy,threshold,seed,runtime_seconds,overhead,faults,huge_faults,promotions,oom,cow_dirty_chunks,error"); err != nil {
		return err
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%s,%s,%d,%d,%d,%t,%d,%s\n",
			row.Policy, g(row.Threshold), row.Seed,
			g(row.RuntimeSeconds), g(row.Overhead),
			row.Faults, row.HugeFaults, row.Promotions,
			row.OOM, row.CowDirtyChunks, csvField(row.Error)); err != nil {
			return err
		}
	}
	return nil
}

// csvField quotes a free-text field when it contains CSV metacharacters
// (error messages may carry commas); plain values pass through unchanged.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return strconv.Quote(s)
	}
	return s
}
