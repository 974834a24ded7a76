package runner

// Benchmark-regression harness: a checked-in baseline (BENCH_baseline.json
// at the repo root) records how fast the simulator's tier-0 hot paths ran on
// the reference machine, normalized against a fixed CPU calibration loop so
// the comparison transfers across machines of different speeds. The gate
// (TestBenchRegression in bench_regress_test.go) re-measures the same paths
// and fails when any of them regresses beyond the tolerance.
//
// Timings are process CPU time, which is the op's own only when the runtime
// has one P. With more Ps, the collector's mark workers run on the other Ps
// while the op runs, and their CPU time is charged to the op as well. The
// reference box has one vCPU, so the baseline was recorded at one P;
// Calibrate, Measure and MeasureAllocs therefore hold GOMAXPROCS at
// referenceProcs whatever the host's CPU count, and the collector's cost is
// charged as it was there.
//
// Refresh the baseline after an intentional performance change with:
//
//	BENCH_REGRESS=update go test ./internal/runner -run TestBenchRegression

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"hawkeye/internal/content"
	"hawkeye/internal/experiments"
	"hawkeye/internal/introspect"
	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/tlb"
	"hawkeye/internal/vmm"
	"hawkeye/internal/workload"
)

// BaselineSchema identifies the baseline file format.
const BaselineSchema = "hawkeye-bench-baseline/v1"

// DefaultTolerance is the fractional slowdown (vs the normalized baseline)
// above which the gate fails.
const DefaultTolerance = 0.15

// referenceProcs is the GOMAXPROCS every measurement runs at: the reference
// box's CPU count, at which BENCH_baseline.json was recorded.
const referenceProcs = 1

// Baseline is the checked-in reference measurement.
type Baseline struct {
	Schema string `json:"schema"`
	// Note documents how to refresh the file.
	Note string `json:"note"`
	// CalibrationNs is the reference machine's ns/op on the calibration
	// loop; benchmark numbers are compared as bench/calibration ratios.
	CalibrationNs float64 `json:"calibration_ns"`
	// BenchmarksNs maps tier-0 benchmark names to ns/op on the reference
	// machine.
	BenchmarksNs map[string]float64 `json:"benchmarks_ns"`
	// BenchmarksAllocs maps alloc-gated benchmark names to steady-state heap
	// allocations per op on the reference machine. Unlike ns/op, allocs/op
	// needs no CPU normalization — the allocation count of a deterministic
	// op is a property of the code, not the machine.
	BenchmarksAllocs map[string]float64 `json:"benchmarks_allocs,omitempty"`
}

// LoadBaseline reads a baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("runner: parse baseline %s: %w", path, err)
	}
	if b.Schema != BaselineSchema {
		return nil, fmt.Errorf("runner: baseline %s has schema %q, want %q", path, b.Schema, BaselineSchema)
	}
	if b.CalibrationNs <= 0 || len(b.BenchmarksNs) == 0 {
		return nil, fmt.Errorf("runner: baseline %s is incomplete", path)
	}
	return &b, nil
}

// Save writes the baseline file.
func (b *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Tier0Bench is one guarded hot-path benchmark.
type Tier0Bench struct {
	Name  string
	Iters int // timed iterations per repetition
	Reps  int // repetitions; the minimum is kept
	// Tolerance, when non-zero, widens the gate's tolerance for this
	// benchmark (the effective tolerance is the larger of the two). The
	// single-shot full-experiment benches need more slack than the
	// tightly-looped micro-benchmarks.
	Tolerance float64
	// GateAllocs adds the benchmark's steady-state allocs/op to the baseline
	// and fails the gate when the measured value exceeds the recorded one
	// (with a small absolute slack for GC-cleared pools).
	GateAllocs bool
	// MaxAllocs, when > 0, is a hard cap on steady-state allocs/op, enforced
	// against the live measurement independent of the baseline — the zero-
	// alloc contract of the replay path.
	MaxAllocs float64
	// AllocIters overrides Iters for the allocation measurement (the full-
	// cell benches are too slow to run Iters times twice more).
	AllocIters int
	// Setup builds the benchmark state and returns the op to time. The op
	// must do the same amount of work on every call.
	Setup func() func()
}

// Tier0Benchmarks returns the guarded set: the kernel touch path, TLB
// translation, the access-bit scan, the snapshot fork, two full quick
// experiment runs, a sweep cell and its replayed steady quantum, and the
// disabled-instrumentation floor.
func Tier0Benchmarks() []Tier0Bench {
	return []Tier0Bench{
		{Name: "touch", Iters: 2_000_000, Reps: 3, Setup: setupTouch},
		{Name: "tlb_access", Iters: 1_000_000, Reps: 3, Setup: setupTLBAccess},
		{Name: "access_scan", Iters: 1_000_000, Reps: 3, Setup: setupAccessScan},
		{Name: "snapshot_fork_cow", Iters: 100, Reps: 3, Setup: setupSnapshotForkCOW},
		// table3 runs before fig5: fig5's machines fork from the process-wide
		// snapshot cache, and the cache it leaves behind perturbs the heap
		// the later benchmarks see — table3 measured after it reads ~10%
		// slower than the same code in a fresh process.
		{Name: "table3_quick", Iters: 1, Reps: 2, Tolerance: 0.30, Setup: setupExperiment("table3")},
		{Name: "fig5_quick", Iters: 1, Reps: 2, Tolerance: 0.30, Setup: setupExperiment("fig5")},
		// sweep_cell is the sweep fan-out unit of work end to end: fork the
		// warm machine from the snapshot cache, replay the access stream from
		// the trace cache, run the policy, release the machine's chunks back
		// to the pools. sweep_cell_steady isolates the replayed steady
		// quantum, whose zero-alloc contract the MaxAllocs cap enforces.
		{Name: "sweep_cell", Iters: 10, Reps: 2, Tolerance: 0.30, GateAllocs: true, AllocIters: 4, Setup: setupSweepCell},
		{Name: "sweep_cell_steady", Iters: 20_000, Reps: 3, GateAllocs: true, MaxAllocs: 2, AllocIters: 2_000, Setup: setupSweepCellSteady},
		// introspect_off is the disabled-instrumentation floor: the hooks the
		// sweep worker body runs per cell, with no debug server armed. The
		// sub-1 MaxAllocs cap holds the contract that idle observability is
		// allocation-free.
		{Name: "introspect_off", Iters: 2_000_000, Reps: 3, GateAllocs: true, MaxAllocs: 0.5, Setup: setupIntrospectOff},
	}
}

// timedSection runs f and returns how long it took. Process CPU time is
// preferred over wall-clock time: `go test ./...` runs package test binaries
// concurrently, so wall-clock timings of a single-threaded loop are inflated
// by whatever else happens to be scheduled, while its CPU time stays stable.
// That CPU time is the loop's own only at one P: with more, the collector's
// mark workers on the other Ps are charged to it too, so callers hold
// GOMAXPROCS at referenceProcs, the reference box's setting.
func timedSection(f func()) time.Duration {
	cpu0 := processCPUTime()
	wall0 := time.Now()
	f()
	if cpu0 >= 0 {
		if cpu1 := processCPUTime(); cpu1 >= 0 {
			return cpu1 - cpu0
		}
	}
	return time.Since(wall0)
}

// MeasureAllocs reports the benchmark's steady-state heap allocations per
// op: one warm-up block lets pools, caches and growable buffers reach their
// steady state, then a second block runs under the runtime's cumulative
// Mallocs counter. GC pauses do not perturb the count (Mallocs is
// monotonic), though a collection can clear sync.Pools mid-block and charge
// their refill — gates carry a small absolute slack for that. Like Measure,
// it runs at referenceProcs Ps and restores the caller's GOMAXPROCS.
func (t Tier0Bench) MeasureAllocs() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(referenceProcs))
	op := t.Setup()
	iters := t.AllocIters
	if iters <= 0 {
		iters = t.Iters
	}
	for i := 0; i < iters; i++ {
		op()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// Measure times the benchmark and reports best-of-reps ns/op. Set-up,
// warm-up and timing all run at referenceProcs Ps; the caller's GOMAXPROCS
// is restored on return.
func (t Tier0Bench) Measure() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(referenceProcs))
	op := t.Setup()
	op() // warm up once outside the timed region
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < t.Reps; rep++ {
		d := timedSection(func() {
			for i := 0; i < t.Iters; i++ {
				op()
			}
		})
		if d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(t.Iters)
}

// --- tier-0 benchmark bodies ---------------------------------------------

// setupTouch exercises the hot TouchOK path of kernel.Touch: present base
// mappings, access bits set via the region bitmaps.
func setupTouch() func() {
	cfg := kernel.DefaultConfig()
	cfg.MemoryBytes = 256 << 20
	k := kernel.New(cfg, nil)
	p := k.Spawn("bench", nil)
	const pages = 4 * mem.HugePages
	for v := vmm.VPN(0); v < pages; v++ {
		if _, err := k.Touch(p, v, false); err != nil {
			panic(err)
		}
	}
	var i int
	return func() {
		if _, err := k.Touch(p, vmm.VPN(i&(pages-1)), false); err != nil {
			panic(err)
		}
		i++
	}
}

// setupTLBAccess drives a random miss-heavy translation stream through the
// two-level TLB (set indexing, LRU insertion, eviction).
func setupTLBAccess() func() {
	t := tlb.New(tlb.HaswellEP())
	r := sim.NewRand(1)
	return func() {
		t.Access(1, r.Int63n(1<<22), false)
	}
}

// setupAccessScan measures the sampler-epoch scan: count accessed pages,
// then clear the bits — the operation HawkEye's access-coverage sampler
// performs on every region every epoch.
func setupAccessScan() func() {
	alloc := mem.NewAllocator(64 << 20)
	store := content.NewStore(int64(alloc.TotalPages()), sim.NewRand(7))
	v := vmm.New(alloc, store)
	p := v.NewProcess("bench")
	r := p.EnsureRegion(0)
	for slot := 0; slot < mem.HugePages; slot++ {
		blk, err := alloc.Alloc(0, mem.PreferZero, mem.TagAnon)
		if err != nil {
			panic(err)
		}
		v.MapBase(p, r, slot, blk.Head)
	}
	sink := 0
	return func() {
		sink += r.AccessedCount()
		r.ClearAccessBits()
		_, acc, _ := r.PopulatedAccessedDirty()
		sink += acc
	}
}

// setupSnapshotForkCOW measures the fork path the sweep fan-out leans on:
// one machine is built and fragmented once, and each op builds a complete
// independent machine from its snapshot by sharing every table chunk with
// the frozen image — O(#chunks) spine copies, no element data.
func setupSnapshotForkCOW() func() {
	cfg := kernel.DefaultConfig()
	cfg.MemoryBytes = 128 << 20
	warm := kernel.New(cfg, nil)
	warm.FragmentMemoryPinned(0.15, kernel.DefaultPinnedChunkFrac)
	snap := warm.Snapshot()
	return func() {
		forkSink = snap.Fork(nil, nil)
	}
}

// forkSink keeps the forked machines observable so the Fork call cannot be
// optimized away.
var forkSink *kernel.Kernel

// setupSweepCell runs one full sweep grid cell per op: snapshot-cache fork,
// trace-cache replay, policy execution, chunk release. The warm-up call
// Measure performs populates both process-wide caches, so the timed ops see
// the steady state a mid-sweep cell sees.
func setupSweepCell() func() {
	spec := experiments.SweepSpec{
		Workload:   "graph500",
		Policies:   []string{"hawkeye-pmu"},
		Thresholds: []float64{0.6},
		Seeds:      1,
		FragKeep:   0.15,
	}
	opts := experiments.Options{Scale: 0.02, Seed: 1, Quick: true}
	cell := spec.Cells(opts.Seed)[0]
	return func() {
		rowSink = experiments.RunSweepCell(opts, spec, cell)
		if rowSink.Error != "" {
			panic("sweep_cell: " + rowSink.Error)
		}
	}
}

// rowSink keeps the cell results observable so RunSweepCell cannot be
// optimized away.
var rowSink experiments.SweepRow

// setupSweepCellSteady isolates one replayed steady quantum: mappings
// settled, trace captured, each op rewinds the replay cursor, jumps the
// process RNG to the stream start and runs a full quantum served entirely
// from the record. This is the path the MaxAllocs cap holds to (near) zero
// allocation: runs decode from the trace arena into the pooled run buffer
// and no RNG or sampler work happens at all.
func setupSweepCellSteady() func() {
	cfg := kernel.DefaultConfig()
	cfg.MemoryBytes = 256 << 20
	k := kernel.New(cfg, nil)
	p := k.Spawn("bench", nil)
	const pages = 4 * mem.HugePages
	for v := vmm.VPN(0); v < pages; v++ {
		if _, err := k.Touch(p, v, true); err != nil {
			panic(err)
		}
	}
	geom := workload.Geometry{
		Pages:     pages,
		Kind:      workload.Hotspot,
		HotFrac:   0.15,
		HotProb:   0.90,
		WriteFrac: 0.2,
		Prof:      kernel.AccessProfile{Locality: 0.8, CyclesPerAccess: 820},
	}
	rs := workload.NewReplaySampler(workload.NewTrace(geom), nil)
	if _, err := k.SteadyRun(p, cfg.Quantum, rs); err != nil {
		panic(err) // captures the quantum every op replays
	}
	return func() {
		start, ok := rs.Rewind()
		if !ok {
			panic("sweep_cell_steady: empty trace")
		}
		p.Rand().SetState(start)
		if _, err := k.SteadyRun(p, cfg.Quantum, rs); err != nil {
			panic(err)
		}
	}
}

// setupIntrospectOff exercises exactly the instrumentation the sweep worker
// body pays per cell — counter increment, latency histogram observe, progress
// publish — against an unarmed registry (no debug server). Dedicated bench
// instruments keep the real sweep metrics untouched. The whole op must stay
// at a few uncontended atomics: publishSweepProgress short-circuits on one
// atomic load before any rate/ETA arithmetic, and neither the counter nor
// the histogram touches the heap.
func setupIntrospectOff() func() {
	c := introspect.GetCounter("bench_introspect_off")
	h := introspect.GetHistogram("bench_introspect_off_wall")
	start := time.Now()
	var i int
	return func() {
		c.Inc()
		h.Observe(time.Duration(i&1023+1) * time.Microsecond)
		publishSweepProgress(i&1023, 1024, 4, start)
		i++
	}
}

// setupExperiment runs one full quick experiment per op (end-to-end: event
// engine, faults, policies, TLB model, table rendering).
func setupExperiment(id string) func() func() {
	return func() func() {
		opts := experiments.Options{Scale: 0.02, Seed: 1, Quick: true}
		return func() {
			if _, err := experiments.Run(id, opts); err != nil {
				panic(fmt.Sprintf("%s: %v", id, err))
			}
		}
	}
}

// --- calibration -----------------------------------------------------------

// Calibrate measures the fixed CPU reference loop (ns/op, best of 5). The
// loop is pure integer work with a data dependency, so its speed tracks the
// host CPU and is unaffected by simulator changes — dividing benchmark
// numbers by it yields machine-independent ratios. It runs at
// referenceProcs Ps, as the benchmarks do, and restores the caller's
// GOMAXPROCS.
func Calibrate() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(referenceProcs))
	const iters = 8_000_000
	best := time.Duration(1<<63 - 1)
	sink := calibrationLoop(iters) // warm up
	for rep := 0; rep < 5; rep++ {
		var x uint64
		d := timedSection(func() { x = calibrationLoop(iters) })
		sink += x
		if d < best {
			best = d
		}
	}
	if sink == 42 { // defeat dead-code elimination
		fmt.Fprintln(os.Stderr, "calibration sink")
	}
	return float64(best.Nanoseconds()) / float64(iters)
}

// calibrationLoop is an xorshift chain: serial, branch-free, cache-resident.
func calibrationLoop(iters int) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// CompareResult is the verdict for one benchmark against the baseline.
type CompareResult struct {
	Name       string
	MeasuredNs float64
	BaselineNs float64
	// Ratio is measured_norm / baseline_norm: 1.0 = parity, >1 = slower
	// than the reference after machine-speed normalization.
	Ratio  float64
	Failed bool
}

// Compare normalizes a measurement against the baseline and applies the
// tolerance.
func (b *Baseline) Compare(name string, measuredNs, calibNs, tolerance float64) (CompareResult, bool) {
	baseNs, ok := b.BenchmarksNs[name]
	if !ok || baseNs <= 0 {
		return CompareResult{Name: name, MeasuredNs: measuredNs}, false
	}
	ratio := (measuredNs / calibNs) / (baseNs / b.CalibrationNs)
	return CompareResult{
		Name:       name,
		MeasuredNs: measuredNs,
		BaselineNs: baseNs,
		Ratio:      ratio,
		Failed:     ratio > 1+tolerance,
	}, true
}
