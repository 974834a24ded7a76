// Package hawkeye is the public facade of the HawkEye huge-page-management
// simulator, a full reproduction of "HawkEye: Efficient Fine-grained OS
// Support for Huge Pages" (Panwar, Bansal, Gopinath — ASPLOS 2019).
//
// The simulator models an operating system's memory-management subsystem at
// the granularity the paper's algorithms operate on: a buddy allocator with
// split zero/non-zero free lists, 2 MB regions with base or huge page-table
// entries, hardware access bits, a two-level TLB with a page-walk cost
// model, PMU counters, page-fault latencies calibrated from the paper's
// Table 1, and the full set of competing policies (Linux THP, FreeBSD
// reservations, Ingens, HawkEye-G, HawkEye-PMU).
//
// Quick start:
//
//	sim := hawkeye.NewSim(hawkeye.Options{Policy: "hawkeye-g"})
//	inst := sim.AddWorkload("graph500")
//	sim.MustRun(0)
//	fmt.Println(sim.Report(inst))
//
// The cmd/hawkeye-bench binary regenerates every table and figure of the
// paper's evaluation; see DESIGN.md for the experiment index.
package hawkeye

import (
	"fmt"
	"sort"
	"strings"

	"hawkeye/internal/core"
	"hawkeye/internal/introspect"
	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/policy"
	"hawkeye/internal/sim"
	"hawkeye/internal/trace"
	"hawkeye/internal/workload"
)

// Time is re-exported simulated time (microseconds).
type Time = sim.Time

// Convenient duration units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
)

// Policy is the huge-page management policy interface.
type Policy = kernel.Policy

// Kernel is the simulated machine.
type Kernel = kernel.Kernel

// Proc is a simulated process.
type Proc = kernel.Proc

// PolicyNames lists the registered policy constructors.
func PolicyNames() []string {
	names := make([]string, 0, len(policyRegistry))
	for n := range policyRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var policyRegistry = map[string]func() kernel.Policy{
	"none":        func() kernel.Policy { return policy.NewNone() },
	"linux-4k":    func() kernel.Policy { return policy.NewNone() },
	"linux":       func() kernel.Policy { return policy.NewLinuxTHP() },
	"linux-2m":    func() kernel.Policy { return policy.NewLinuxTHP() },
	"freebsd":     func() kernel.Policy { return policy.NewFreeBSD() },
	"ingens":      func() kernel.Policy { return policy.NewIngens() },
	"ingens-90":   func() kernel.Policy { return policy.NewIngensUtil(0.9) },
	"ingens-50":   func() kernel.Policy { return policy.NewIngensUtil(0.5) },
	"hawkeye-g":   func() kernel.Policy { return core.NewG() },
	"hawkeye-pmu": func() kernel.Policy { return core.NewPMU() },
	"hawkeye-g-4k": func() kernel.Policy {
		c := core.DefaultConfig(core.VariantG)
		c.HugeOnFault = false
		return core.New(c)
	},
	"hawkeye-g-2m": func() kernel.Policy { return core.NewG() },
}

// NewPolicy constructs a policy by name. Valid names: none, linux,
// freebsd, ingens, ingens-90, ingens-50, hawkeye-g, hawkeye-pmu,
// hawkeye-g-4k (async pre-zeroing with base pages only).
func NewPolicy(name string) (Policy, error) {
	f, ok := policyRegistry[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("hawkeye: unknown policy %q (valid: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
	return f(), nil
}

// Options configures a simulation.
type Options struct {
	// Policy is a registry name; default "hawkeye-g".
	Policy string
	// MemoryBytes is the simulated DRAM size; default 8 GiB (the paper's
	// 96 GB host at 1/12 scale).
	MemoryBytes mem.Bytes
	// Scale shrinks workload footprints; 0 selects the default 1/12, which
	// matches the memory scale. Any other value must be finite and greater
	// than 0 (both CLIs reject the rest before building a machine).
	Scale float64
	// Seed makes runs reproducible; default 1.
	Seed uint64
	// FragmentKeep, when > 0, pre-fragments physical memory, keeping this
	// fraction resident as page cache (the paper fragments by reading
	// files before its recovery experiments).
	FragmentKeep float64
	// SwapBytes sizes the SSD-backed swap partition (0 = none); with swap,
	// overcommitted machines page instead of OOM-killing, as on the
	// paper's testbed.
	SwapBytes mem.Bytes
	// Trace, when non-nil, enables the deterministic event-tracing and
	// vmstat-counter subsystem; the recorder is reachable afterwards as
	// Sim.K.Trace. Tracing never perturbs simulation results.
	Trace *TraceConfig
}

// TraceConfig configures the tracing subsystem (see internal/trace).
type TraceConfig = trace.Config

// DebugServer is the live-introspection HTTP server (see
// internal/introspect): /metrics, /debug/vars, /progress, /events,
// /debug/pprof and /healthz over the process-wide registry.
type DebugServer = introspect.Server

// ServeDebug starts the debug server on addr (e.g. "127.0.0.1:6060";
// ":0" picks a free port, readable from the returned server's Addr). It is
// pure observability — scraping it never changes a simulated byte.
func ServeDebug(addr string) (*DebugServer, error) { return introspect.Serve(addr) }

// DefaultScale is the footprint scale matching the default 8 GiB machine.
const DefaultScale = 1.0 / 12

// Sim is a configured simulation: one machine, one policy, any number of
// workloads.
type Sim struct {
	K     *kernel.Kernel
	Scale float64

	// cfg and keep echo the machine's construction parameters so AddWorkload
	// can key its access trace into the process-wide trace cache.
	cfg  kernel.Config
	keep float64

	instances []*RunningWorkload
}

// RunningWorkload pairs a workload instance with its process.
type RunningWorkload struct {
	Inst *workload.Instance
	Proc *kernel.Proc
}

// NewSim builds a machine per the options.
func NewSim(o Options) *Sim {
	if o.Policy == "" {
		o.Policy = "hawkeye-g"
	}
	pol, err := NewPolicy(o.Policy)
	if err != nil {
		panic(err)
	}
	cfg := kernel.DefaultConfig()
	if o.MemoryBytes > 0 {
		cfg.MemoryBytes = o.MemoryBytes
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.SwapBytes = o.SwapBytes
	cfg.Trace = o.Trace
	k := kernel.New(cfg, pol)
	// Register with the live-introspection registry before anything runs
	// (no-op unless tracing is on; scraped only while a debug server is up).
	introspect.AttachMachine(o.Policy, k.Trace)
	if o.FragmentKeep > 0 {
		k.FragmentMemory(o.FragmentKeep)
	}
	scale := o.Scale
	if scale <= 0 {
		scale = DefaultScale
	}
	return &Sim{K: k, Scale: scale, cfg: cfg, keep: o.FragmentKeep}
}

// AddWorkload spawns a catalog workload (see workload.Catalog) on the
// machine and returns its handle. Workloads with a sampler-driven steady
// state replay their access stream from the process-wide trace cache
// (captured on first use; see internal/workload's Trace) — byte-identical to
// live sampling. Replay leaves the machine's vmstat as live sampling would;
// the cache's figures and trace_replay_hits are process-wide, on the
// introspect registry (/metrics).
func (s *Sim) AddWorkload(name string) *RunningWorkload {
	inst := workload.NewByName(name, s.Scale)
	if inst.Sampler != nil {
		inst.AttachReplay(workload.TraceKey{
			Cfg:       s.cfg,
			Keep:      s.keep,
			Pinned:    kernel.DefaultPinnedChunkFrac,
			Geom:      inst.Sampler.Geometry(),
			ProcIndex: len(s.K.Procs()),
		})
	}
	p := s.K.Spawn(name, inst.Program)
	rw := &RunningWorkload{Inst: inst, Proc: p}
	s.instances = append(s.instances, rw)
	return rw
}

// AddProgram spawns an arbitrary program.
func (s *Sim) AddProgram(name string, prog kernel.Program) *kernel.Proc {
	return s.K.Spawn(name, prog)
}

// Run drives the simulation until idle or the deadline (0 = until all
// programs finish).
func (s *Sim) Run(deadline Time) error { return s.K.Run(deadline) }

// MustRun is Run, panicking on error (experiment scripts).
func (s *Sim) MustRun(deadline Time) {
	if err := s.Run(deadline); err != nil {
		panic(err)
	}
}

// Report summarizes one workload's execution. A process the kernel killed
// for lack of memory ends its line with "oom-killed": its memory is already
// released, so its rss and huge-mapped figures read 0.
func (s *Sim) Report(rw *RunningWorkload) string {
	p := rw.Proc
	line := fmt.Sprintf(
		"%s: runtime=%v work=%.1fs mmu-overhead=%.2f%% faults=%d (huge %d) rss=%dMB huge-mapped=%d",
		p.Name(), p.Runtime(s.K.Now()), p.WorkDone, 100*p.PMU.Overhead(),
		p.Acct.Faults, p.Acct.HugeFaults, p.VP.RSSBytes()>>20, p.VP.HugeMapped())
	if p.OOMKilled {
		line += " oom-killed"
	}
	return line
}

// Workloads lists the catalog workload names.
func Workloads() []string {
	cat := workload.Catalog()
	names := make([]string, 0, len(cat))
	for n := range cat {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
