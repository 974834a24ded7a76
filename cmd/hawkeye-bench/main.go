// Command hawkeye-bench regenerates the tables and figures of the HawkEye
// paper's evaluation on the simulator.
//
// Usage:
//
//	hawkeye-bench [-scale 0.0833] [-quick] [-seed 1] [-parallel N] [-json out.json] all|<id> [<id>...]
//
// Experiments run on a worker pool (-parallel, default 1; 0 means
// GOMAXPROCS). Each experiment owns an isolated deterministic machine, so
// parallel runs print byte-identical tables to serial runs with the same
// seed — always in the order the IDs were given, regardless of completion
// order. -json writes a machine-readable report (schema "hawkeye-bench/v1")
// with per-experiment wall time, allocated bytes and simulation-event
// throughput; see README.md for the schema.
//
// Profiling: -cpuprofile, -memprofile and -trace write pprof/execution-trace
// files covering the experiment runs (flag parsing and table printing
// excluded), for use with `go tool pprof` / `go tool trace`. A -sweep run
// takes -cpuprofile only; it exits 2 on -memprofile, -trace and
// -trace-events.
//
// Simulation tracing (distinct from -trace, which records the Go runtime):
// -trace-events enables the deterministic event/counter subsystem on every
// machine the experiments build and writes one file per machine into the
// given directory — <id>-<label>.jsonl plus a matching .vmstat snapshot and
// .trace.json Chrome trace. -trace-sample additionally records periodic
// counter series into <id>-<label>.csv.
//
// Valid experiment IDs: run with -list.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"hawkeye/internal/experiments"
	"hawkeye/internal/introspect"
	"hawkeye/internal/runner"
	"hawkeye/internal/sim"
	"hawkeye/internal/snapshot"
	htrace "hawkeye/internal/trace"
	"hawkeye/internal/workload"
)

// sweepFlags carries the raw -sweep-* flag values into runSweep.
type sweepFlags struct {
	workload   string
	policies   string
	thresholds string
	seeds      int
	keep       float64
}

// runSweep parses, validates and executes a sweep grid, printing rows as
// CSV (to stderr when -json - owns stdout) and optionally the JSON report.
// Unless quiet, a progress line (cells done/total, rate, ETA) ticks on
// stderr while the grid runs — stdout carries only the CSV, so redirected
// output still diffs clean. Returns the process exit code: 1 if any cell
// failed, else 0.
func runSweep(sf sweepFlags, opts experiments.Options, parallel int, jsonOut string, quiet bool) int {
	spec := experiments.SweepSpec{
		Workload: sf.workload,
		Policies: splitList(sf.policies),
		Seeds:    sf.seeds,
		FragKeep: sf.keep,
	}
	for _, s := range splitList(sf.thresholds) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep-thresholds: bad value %q: %v\n", s, err)
			return 2
		}
		spec.Thresholds = append(spec.Thresholds, v)
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var progress func(done, total int)
	if !quiet {
		start := time.Now()
		var lastLine time.Time
		progress = func(done, total int) {
			now := time.Now()
			// Rate-limit redraws; the final cell always prints so the line
			// ends complete.
			if done < total && now.Sub(lastLine) < 500*time.Millisecond {
				return
			}
			lastLine = now
			elapsed := now.Sub(start).Seconds()
			rate := 0.0
			if elapsed > 0 {
				rate = float64(done) / elapsed
			}
			eta := "-"
			if rate > 0 {
				eta = (time.Duration(float64(total-done) / rate * float64(time.Second))).Round(time.Second).String()
			}
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells (%.1f cells/s, ETA %s)   ", done, total, rate, eta)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	rep := runner.RunSweepProgress(spec, opts, parallel, progress)
	if !quiet && rep.CellLatency.Count > 0 {
		lat := rep.CellLatency
		ms := func(ns float64) float64 { return ns / 1e6 }
		fmt.Fprintf(os.Stderr, "sweep: cell wall latency p50=%.1fms p90=%.1fms p99=%.1fms mean=%.1fms (%d cells)\n",
			ms(lat.P50Ns), ms(lat.P90Ns), ms(lat.P99Ns), ms(lat.MeanNs), lat.Count)
	}

	csvTo := io.Writer(os.Stdout)
	if jsonOut == "-" {
		csvTo = os.Stderr
	}
	failed := 0
	bw := bufio.NewWriter(csvTo)
	if err := rep.WriteCSV(bw); err != nil {
		fmt.Fprintln(os.Stderr, "sweep csv:", err)
		failed++
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep csv:", err)
		failed++
	}
	for _, row := range rep.Rows {
		if row.Error != "" {
			fmt.Fprintf(os.Stderr, "sweep cell %s/%g/seed=%d: %s\n", row.Policy, row.Threshold, row.Seed, row.Error)
			failed++
		}
	}
	if jsonOut != "" {
		if err := rep.WriteJSON(jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runFlags are the flag values checkFlags validates.
type runFlags struct {
	scale                          float64
	sweep                          bool
	memProfile, traceOut, traceDir string
}

// checkFlags returns an error naming the first flag that describes no run
// or that the run would ignore, or nil if every value is usable.
// Experiments read a non-positive scale as "use the default", and a NaN or
// infinite one sizes machines from garbage. A -sweep run writes no heap
// profile, runtime trace or simulation trace: those outputs are set up for
// experiment runs only, so accepting them would exit 0 with no file written.
func checkFlags(f runFlags) error {
	if math.IsNaN(f.scale) || math.IsInf(f.scale, 0) || f.scale <= 0 {
		return fmt.Errorf("-scale must be finite and greater than 0, got %v", f.scale)
	}
	if !f.sweep {
		return nil
	}
	for _, o := range []struct{ name, v string }{
		{"memprofile", f.memProfile},
		{"trace", f.traceOut},
		{"trace-events", f.traceDir},
	} {
		if o.v != "" {
			return fmt.Errorf("-%s is not supported with -sweep", o.name)
		}
	}
	return nil
}

// splitList splits a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func main() {
	scale := flag.Float64("scale", 1.0/12, "footprint and machine scale relative to the paper's 96 GB host")
	quick := flag.Bool("quick", false, "shorten steady phases ~10x (shapes preserved)")
	seed := flag.Uint64("seed", 1, "deterministic RNG seed")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	parallel := flag.Int("parallel", 1, "worker pool size (0 = GOMAXPROCS)")
	jsonOut := flag.String("json", "", "write a JSON report to this path (\"-\" = stdout)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this path")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the runs) to this path")
	traceOut := flag.String("trace", "", "write a runtime execution trace of the experiment runs to this path")
	traceDir := flag.String("trace-events", "", "write per-machine simulation traces (JSONL, vmstat, Chrome JSON) into this directory")
	traceSample := flag.Float64("trace-sample", 0, "sample vmstat counters every this many simulated seconds into per-machine CSVs (needs -trace-events)")
	noSnapCache := flag.Bool("no-snapshot-cache", false, "build and fragment every machine from scratch instead of forking cached warm-up snapshots (output is byte-identical either way)")
	snapCacheBytes := flag.Int64("snapshot-cache-bytes", 0, "cap the warm-up snapshot cache's resident bytes, evicting least-recently-forked images (0 = unlimited)")
	noTraceCache := flag.Bool("no-trace-cache", false, "sample every steady phase live instead of replaying the process-wide recorded access trace (output is byte-identical either way)")
	traceCacheBytes := flag.Int64("trace-cache-bytes", 0, "cap the access-trace cache's resident bytes, evicting least-recently-attached traces (0 = unlimited)")
	quiet := flag.Bool("quiet", false, "suppress the sweep progress line and latency summary on stderr")
	debugAddr := flag.String("debug-addr", "", "serve live introspection endpoints (/metrics, /progress, /events, /debug/pprof) on this address while running (e.g. 127.0.0.1:6060; empty = off)")
	sweep := flag.Bool("sweep", false, "run a (policy x threshold x seed) sweep grid instead of experiment IDs; rows print as CSV (schema hawkeye-sweep/v1 with -json)")
	sweepWorkload := flag.String("sweep-workload", "graph500", "workload every sweep cell runs")
	sweepPolicies := flag.String("sweep-policies", "linux,ingens,hawkeye-pmu", "comma-separated policies to sweep")
	sweepThresholds := flag.String("sweep-thresholds", "0.3,0.6,0.9", "comma-separated per-policy aggressiveness settings")
	sweepSeeds := flag.Int("sweep-seeds", 1, "seeds per (policy, threshold) point, numbered up from -seed")
	sweepKeep := flag.Float64("sweep-keep", 0.15, "page-cache residue fragmenting each sweep machine (0 = pristine)")
	flag.Parse()

	if err := checkFlags(runFlags{
		scale: *scale, sweep: *sweep,
		memProfile: *memProfile, traceOut: *traceOut, traceDir: *traceDir,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Cache budgets apply process-wide, before any machine is built.
	if *snapCacheBytes > 0 {
		snapshot.Cache.SetBudget(*snapCacheBytes)
	}
	if *traceCacheBytes > 0 {
		workload.TraceCache.SetBudget(*traceCacheBytes)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	// The debug server is pure observability: scraping it mid-run never
	// changes a simulated byte (CI's introspect-smoke step byte-compares a
	// scraped sweep against an unscraped one). It stays up for the whole
	// process; the listener dies with the process on the os.Exit paths.
	if *debugAddr != "" {
		srv, err := introspect.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s\n", srv.Addr())
	}
	// CPU profiling starts before the sweep branch so -cpuprofile covers
	// -sweep runs too; the sweep path stops it explicitly because os.Exit
	// skips the deferred stop.
	stopCPU := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		stopCPU = func() { pprof.StopCPUProfile(); f.Close() }
	}
	defer stopCPU()

	if *sweep {
		code := runSweep(sweepFlags{
			workload:   *sweepWorkload,
			policies:   *sweepPolicies,
			thresholds: *sweepThresholds,
			seeds:      *sweepSeeds,
			keep:       *sweepKeep,
		}, experiments.Options{Scale: *scale, Seed: *seed, Quick: *quick, NoSnapshotCache: *noSnapCache, NoTraceCache: *noTraceCache},
			*parallel, *jsonOut, *quiet)
		stopCPU()
		os.Exit(code)
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: hawkeye-bench [flags] all|<experiment-id>...")
		fmt.Fprintln(os.Stderr, "experiments:", experiments.IDs())
		os.Exit(2)
	}
	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = experiments.IDs()
	}
	opts := experiments.Options{Scale: *scale, Seed: *seed, Quick: *quick, NoSnapshotCache: *noSnapCache, NoTraceCache: *noTraceCache}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "trace-events:", err)
			os.Exit(1)
		}
		opts.Trace = &htrace.Config{
			SampleEvery: sim.Time(*traceSample * float64(sim.Second)),
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		defer trace.Stop()
	}

	start := time.Now()
	results := runner.Run(ids, opts, *parallel)
	totalWall := time.Since(start)

	// Stop the run-scoped recorders before reporting so the profiles cover
	// exactly the experiment work.
	if *traceOut != "" {
		trace.Stop()
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC() // flush final allocation stats into the heap profile
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
		f.Close()
	}

	// With -json - the report owns stdout; tables move to stderr so the
	// JSON stays machine-parseable.
	tablesTo := io.Writer(os.Stdout)
	if *jsonOut == "-" {
		tablesTo = os.Stderr
	}
	failed := 0
	for _, res := range results {
		if res.Error != "" {
			fmt.Fprintf(os.Stderr, "%s: %s\n", res.ID, res.Error)
			failed++
			continue
		}
		fmt.Fprintln(tablesTo, res.Table)
		fmt.Fprintf(tablesTo, "(%s completed in %.1fs wall)\n\n", res.ID, res.WallSeconds)
	}
	fmt.Fprintf(tablesTo, "total: %d experiments in %.1fs wall\n", len(results), totalWall.Seconds())

	if *traceDir != "" {
		if err := exportTraces(*traceDir, results, *traceSample > 0); err != nil {
			fmt.Fprintln(os.Stderr, "trace-events:", err)
			failed++
		} else {
			fmt.Fprintf(tablesTo, "simulation traces written to %s\n", *traceDir)
		}
	}

	if *jsonOut != "" {
		rep := runner.NewReport(opts.WithDefaults(), *parallel, totalWall, results)
		if err := rep.WriteJSON(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// exportTraces writes each traced machine's event trace (JSONL), vmstat
// snapshot and Chrome trace — plus, when sampling was on, its counter
// series as CSV — into dir as <experiment>-<label>.<ext>.
func exportTraces(dir string, results []runner.Result, sampled bool) error {
	for _, res := range results {
		for _, e := range res.Traces.Entries() {
			base := filepath.Join(dir, res.ID+"-"+sanitizeLabel(e.Label))
			if err := writeTo(base+".jsonl", e.Trace.WriteJSONL); err != nil {
				return err
			}
			if err := writeTo(base+".vmstat", e.Trace.WriteVmstat); err != nil {
				return err
			}
			if err := writeTo(base+".trace.json", e.Trace.WriteChromeTrace); err != nil {
				return err
			}
			if sampled && e.Series != nil {
				if err := writeTo(base+".csv", func(w io.Writer) error {
					return writeSeriesCSV(w, e.Series)
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sanitizeLabel makes a trace label filename-safe.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, label)
}

// writeTo creates path and streams fn into it.
func writeTo(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSeriesCSV dumps the sampled vmstat counter series of one machine.
func writeSeriesCSV(w io.Writer, rec *sim.Recorder) error {
	if _, err := fmt.Fprintln(w, "series,t_seconds,value"); err != nil {
		return err
	}
	for _, name := range rec.Names() {
		if !strings.HasPrefix(name, "vmstat/") {
			continue
		}
		s := rec.Series(name)
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%.6f,%g\n", name, p.T.Seconds(), p.V); err != nil {
				return err
			}
		}
	}
	return nil
}
