package runner

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// baselinePath locates the checked-in baseline at the repo root.
const baselinePath = "../../BENCH_baseline.json"

// TestBenchRegression is the tier-0 performance gate: it re-measures the
// guarded hot paths, normalizes them by the CPU calibration loop, and fails
// when any path is more than the tolerance slower than the checked-in
// baseline ratio.
//
// Environment knobs:
//
//	BENCH_REGRESS=skip            skip the gate
//	BENCH_REGRESS=update          re-measure and rewrite BENCH_baseline.json
//	BENCH_REGRESS_TOLERANCE=0.25  override the 15% default tolerance
func TestBenchRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate skipped in -short")
	}
	switch os.Getenv("BENCH_REGRESS") {
	case "skip":
		t.Skip("BENCH_REGRESS=skip")
	case "update":
		updateBaseline(t)
		return
	}

	base, err := LoadBaseline(baselinePath)
	if err != nil {
		t.Fatalf("load baseline (refresh with BENCH_REGRESS=update): %v", err)
	}

	tolerance := DefaultTolerance
	if s := os.Getenv("BENCH_REGRESS_TOLERANCE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			t.Fatalf("bad BENCH_REGRESS_TOLERANCE %q", s)
		}
		tolerance = v
	}

	t.Logf("baseline calibration: %.2f ns/op", base.CalibrationNs)
	for _, bench := range Tier0Benchmarks() {
		// Micro-benchmarks use the gate tolerance; the single-shot
		// experiment benches may declare a wider one.
		tol := tolerance
		if bench.Tolerance > tol {
			tol = bench.Tolerance
		}
		// Calibration is measured fresh for every benchmark (it costs
		// ~100 ms): on shared/virtualized hosts the effective CPU speed
		// drifts over the gate's runtime, and a single up-front calibration
		// would mis-normalize the later benchmarks.
		calib := Calibrate()
		ns := bench.Measure()
		res, ok := base.Compare(bench.Name, ns, calib, tol)
		if !ok {
			t.Errorf("%s: not in baseline — refresh with BENCH_REGRESS=update", bench.Name)
			continue
		}
		// A real regression reproduces; a noisy measurement does not. Before
		// failing, re-measure (with fresh calibration) up to twice and keep
		// the best ratio observed.
		for retry := 0; res.Failed && retry < 2; retry++ {
			t.Logf("%s: ratio %.3f over tolerance, re-measuring (%d/2)", res.Name, res.Ratio, retry+1)
			again, _ := base.Compare(bench.Name, bench.Measure(), Calibrate(), tol)
			if again.Ratio < res.Ratio {
				res = again
			}
		}
		t.Logf("%-14s %12.1f ns/op (baseline %12.1f, normalized ratio %.3f, tolerance %.2f)",
			res.Name, res.MeasuredNs, res.BaselineNs, res.Ratio, tol)
		if res.Failed {
			t.Errorf("%s regressed: normalized ratio %.3f exceeds 1+%.2f (measured %.1f ns/op, baseline %.1f ns/op)",
				res.Name, res.Ratio, tol, res.MeasuredNs, res.BaselineNs)
		}
		if bench.GateAllocs {
			allocs := bench.MeasureAllocs()
			// Slack: +25% and +2 absolute — allocation counts are mostly
			// deterministic, but a GC can clear sync.Pools mid-measurement
			// and charge their refill to the ops.
			if baseAllocs, ok := base.BenchmarksAllocs[bench.Name]; !ok {
				t.Errorf("%s: allocs not in baseline — refresh with BENCH_REGRESS=update", bench.Name)
			} else if allocs > baseAllocs*1.25+2 {
				t.Errorf("%s allocation regression: %.2f allocs/op, baseline %.2f", bench.Name, allocs, baseAllocs)
			} else {
				t.Logf("%-14s %12.2f allocs/op (baseline %.2f)", bench.Name, allocs, baseAllocs)
			}
			if bench.MaxAllocs > 0 && allocs > bench.MaxAllocs {
				t.Errorf("%s exceeds its hard allocation cap: %.2f allocs/op > %.0f", bench.Name, allocs, bench.MaxAllocs)
			}
		}
	}
}

// TestMeasureHoldsReferenceProcs checks that Calibrate, Measure and
// MeasureAllocs run at referenceProcs Ps whatever the caller's GOMAXPROCS,
// and hand the caller's value back on return. It is cheap, so -short keeps
// it.
func TestMeasureHoldsReferenceProcs(t *testing.T) {
	const callerProcs = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(callerProcs))
	restored := func(call string) {
		t.Helper()
		if n := runtime.GOMAXPROCS(0); n != callerProcs {
			t.Errorf("after %s: GOMAXPROCS %d, want the caller's %d back", call, n, callerProcs)
		}
	}

	var seen []int
	stub := Tier0Bench{Name: "stub", Iters: 4, Reps: 2, Setup: func() func() {
		return func() { seen = append(seen, runtime.GOMAXPROCS(0)) }
	}}
	for _, m := range []struct {
		call    string
		measure func()
	}{
		{"Measure", func() { stub.Measure() }},
		{"MeasureAllocs", func() { stub.MeasureAllocs() }},
	} {
		seen = nil
		m.measure()
		if len(seen) == 0 {
			t.Errorf("%s: op never ran", m.call)
		}
		for _, n := range seen {
			if n != referenceProcs {
				t.Errorf("%s: op ran at GOMAXPROCS %d, want %d", m.call, n, referenceProcs)
				break
			}
		}
		restored(m.call)
	}

	// Calibrate runs no caller code, so a second goroutine samples
	// GOMAXPROCS while it runs. The value is callerProcs before and after
	// the call, so a sample of referenceProcs can only come from inside it;
	// the scheduler preempts the calibration loop every few milliseconds,
	// which lets the sampler run even at one P.
	stop := make(chan struct{})
	sawRef := make(chan bool)
	go func() {
		saw := false
		for {
			select {
			case <-stop:
				sawRef <- saw
				return
			default:
			}
			saw = saw || runtime.GOMAXPROCS(0) == referenceProcs
			runtime.Gosched()
		}
	}()
	Calibrate()
	close(stop)
	if !<-sawRef {
		t.Errorf("Calibrate: never ran at GOMAXPROCS %d", referenceProcs)
	}
	restored("Calibrate")
}

// updateBaseline re-measures every tier-0 benchmark and rewrites the
// artifact.
func updateBaseline(t *testing.T) {
	if raceEnabled {
		t.Fatal("refusing to update BENCH_baseline.json under -race: race instrumentation inflates every measurement, which would poison the baseline for uninstrumented runs — rerun without -race")
	}
	b := &Baseline{
		Schema:           BaselineSchema,
		Note:             "Tier-0 hot-path baseline. Refresh after intentional perf changes: BENCH_REGRESS=update go test ./internal/runner -run TestBenchRegression",
		CalibrationNs:    Calibrate(),
		BenchmarksNs:     map[string]float64{},
		BenchmarksAllocs: map[string]float64{},
	}
	for _, bench := range Tier0Benchmarks() {
		ns := bench.Measure()
		b.BenchmarksNs[bench.Name] = ns
		if bench.GateAllocs {
			allocs := bench.MeasureAllocs()
			b.BenchmarksAllocs[bench.Name] = allocs
			t.Logf("%-14s %12.1f ns/op  %8.2f allocs/op", bench.Name, ns, allocs)
			continue
		}
		t.Logf("%-14s %12.1f ns/op", bench.Name, ns)
	}
	abs, _ := filepath.Abs(baselinePath)
	if err := b.Save(baselinePath); err != nil {
		t.Fatalf("save baseline: %v", err)
	}
	t.Logf("baseline written to %s (calibration %.2f ns/op)", abs, b.CalibrationNs)
}

// Standard go-bench wrappers over the same tier-0 bodies, so
// `go test ./internal/runner -bench Tier0` explores them interactively.
func BenchmarkTier0Touch(b *testing.B)          { runTier0(b, "touch") }
func BenchmarkTier0TouchRun(b *testing.B)       { runTier0(b, "touch_run") }
func BenchmarkTier0TouchRunTraced(b *testing.B) { runTier0(b, "touch_run_traced") }
func BenchmarkTier0TLBAccess(b *testing.B)      { runTier0(b, "tlb_access") }
func BenchmarkTier0TLBAccessRun(b *testing.B)   { runTier0(b, "tlb_access_run") }
func BenchmarkTier0AccessScan(b *testing.B)     { runTier0(b, "access_scan") }
func BenchmarkTier0SweepCell(b *testing.B)      { runTier0(b, "sweep_cell") }
func BenchmarkTier0SweepCellSteady(b *testing.B) {
	runTier0(b, "sweep_cell_steady")
}
func BenchmarkTier0IntrospectOff(b *testing.B) { runTier0(b, "introspect_off") }

func runTier0(b *testing.B, name string) {
	for _, bench := range Tier0Benchmarks() {
		if bench.Name != name {
			continue
		}
		op := bench.Setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		return
	}
	b.Fatalf("no tier-0 benchmark %q", name)
}
