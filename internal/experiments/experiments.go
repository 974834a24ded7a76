// Package experiments regenerates every table and figure of the HawkEye
// paper's evaluation (§2 and §4) on the simulator. Each experiment is a
// function from Options to a formatted Table; the registry maps the paper's
// table/figure identifiers to them. See DESIGN.md for the experiment index
// and EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hawkeye/internal/introspect"
	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/policy"
	"hawkeye/internal/sim"
	"hawkeye/internal/snapshot"
	"hawkeye/internal/trace"
	"hawkeye/internal/workload"
)

// Options configures a reproduction run.
type Options struct {
	// Scale shrinks workload footprints and the machine; 0 selects the
	// default 1/12 (an 8 GiB machine standing in for the paper's 96 GB
	// host). Any other value must be finite and greater than 0
	// (hawkeye-bench rejects the rest before running anything).
	Scale float64
	// MemoryBytes overrides the machine size (default 96 GB × Scale).
	MemoryBytes mem.Bytes
	// Seed selects the deterministic RNG stream.
	Seed uint64
	// Quick shortens steady-state phases ~10× for use under `go test
	// -bench`; shapes are preserved, absolute times shrink.
	Quick bool
	// Metrics, when non-nil, collects live simulation counters (event
	// throughput) for this run. It never influences results, so runs with
	// and without it are byte-identical.
	Metrics *Metrics
	// Trace, when non-nil, enables the event-tracing/counter subsystem on
	// every machine the experiment builds. Tracing is passive: it never
	// influences scheduling or results, so runs with and without it emit
	// byte-identical tables.
	Trace *trace.Config
	// Traces, when non-nil, collects each traced machine's recorder (and
	// its sampled counter series) for export after the run.
	Traces *TraceSet
	// NoSnapshotCache disables the warm-up snapshot cache: every machine is
	// built (and fragmented) from scratch instead of forked from a cached
	// snapshot. Output is byte-identical either way — the fork path is held
	// to that contract by TestCachedMatchesUncached — so this is an
	// escape hatch for timing the uncached path and for A/B-ing the cache
	// itself (hawkeye-bench -no-snapshot-cache).
	NoSnapshotCache bool
	// NoTraceCache disables access-trace record/replay: every steady phase
	// samples its stream live instead of replaying the process-wide recorded
	// trace. Output is byte-identical either way — replay serves the exact
	// run sequence live sampling would produce and asserts the RNG stream
	// stays in lockstep (TestSweepReplayMatchesLive holds the whole sweep
	// pipeline to that contract, TestCachedMatchesUncached every
	// experiment) — so, like NoSnapshotCache, this is an escape hatch for
	// timing and A/B-ing (hawkeye-bench -no-trace-cache).
	NoTraceCache bool
}

// Metrics aggregates simulation counters across every machine an experiment
// creates. It is safe for concurrent use so the parallel runner can share
// one per experiment while workers run side by side. It keeps each engine's
// event tally, not the engine, so a machine is garbage once its experiment
// code drops it.
type Metrics struct {
	mu   sync.Mutex
	seen map[*sim.EventCount]struct{}
	// counts holds the registration order; sums walk this slice rather
	// than the dedup map so aggregation order never depends on map order.
	counts []*sim.EventCount
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics {
	return &Metrics{seen: make(map[*sim.EventCount]struct{})}
}

// observe registers a machine's event tally (deduplicated by pointer, so
// co-simulated kernels sharing one engine are counted once).
func (m *Metrics) observe(e *sim.Engine) {
	if m == nil || e == nil {
		return
	}
	c := e.Events()
	m.mu.Lock()
	if _, ok := m.seen[c]; !ok {
		m.seen[c] = struct{}{}
		m.counts = append(m.counts, c)
	}
	m.mu.Unlock()
}

// EventsFired sums discrete events executed across the run's engines.
func (m *Metrics) EventsFired() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, c := range m.counts {
		n += c.Load()
	}
	return n
}

// TraceSet collects the trace recorder of every machine an experiment
// builds, labeled by policy name, so callers can export events and counter
// snapshots after the run. Safe for concurrent use so the parallel runner
// can share one per experiment.
type TraceSet struct {
	mu      sync.Mutex
	seen    map[*kernel.Kernel]struct{}
	counts  map[string]int
	entries []TraceEntry
}

// TraceEntry pairs one machine's trace recorder with its sampled counter
// series (the kernel's sim.Recorder, which the trace sampler feeds).
type TraceEntry struct {
	Label  string
	Trace  *trace.Recorder
	Series *sim.Recorder

	base string // Label without its "#n" suffix, for merge
}

// NewTraceSet returns an empty collector.
func NewTraceSet() *TraceSet {
	return &TraceSet{
		seen:   make(map[*kernel.Kernel]struct{}),
		counts: make(map[string]int),
	}
}

// observe registers a traced machine (deduplicated by pointer). Labels are
// the policy name; repeats within one run get a "#2", "#3", ... suffix in
// machine-creation order — the order of a serial run, since fanOut merges
// its jobs' private sets in job order.
func (t *TraceSet) observe(k *kernel.Kernel) {
	if t == nil || k == nil || k.Trace == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.seen[k]; ok {
		return
	}
	t.seen[k] = struct{}{}
	t.addLocked(TraceEntry{base: machineLabel(k), Trace: k.Trace, Series: k.Rec})
}

// addLocked appends e, numbering its label after the entries already held.
// Caller holds t.mu.
func (t *TraceSet) addLocked(e TraceEntry) {
	t.counts[e.base]++
	e.Label = e.base
	if n := t.counts[e.base]; n > 1 {
		e.Label = fmt.Sprintf("%s#%d", e.base, n)
	}
	t.entries = append(t.entries, e)
}

// merge appends src's entries in src's order, numbered as if their machines
// had been observed here after the ones t already holds.
func (t *TraceSet) merge(src *TraceSet) {
	if t == nil {
		return
	}
	entries := src.Entries()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range entries {
		t.addLocked(e)
	}
}

// machineLabel names a machine after its policy.
func machineLabel(k *kernel.Kernel) string {
	if k.Policy == nil {
		return "machine"
	}
	return k.Policy.Name()
}

// Entries returns the collected recorders in machine-creation order.
func (t *TraceSet) Entries() []TraceEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEntry(nil), t.entries...)
}

// observe registers a kernel's engine with the run's Metrics and its trace
// recorder with the run's TraceSet, if either is present, and attaches the
// machine to the process-wide introspect registry (a no-op when tracing is
// off: there is no recorder to scrape). Every experiment calls it exactly
// once per machine, at construction — before the machine runs, which the
// flight-recorder attach requires.
func (o Options) observe(k *kernel.Kernel) {
	if o.Metrics != nil {
		o.Metrics.observe(k.Engine)
	}
	o.Traces.observe(k)
	introspect.AttachMachine(machineLabel(k), k.Trace)
}

// WithDefaults returns the options with unset fields resolved to the
// defaults Run would use — handy for reporting the effective configuration.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0 / 12
	}
	if o.MemoryBytes <= 0 {
		o.MemoryBytes = mem.Bytes(float64(96<<30) * o.Scale)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// work returns a possibly-shortened steady-work duration.
func (o Options) work(full float64) float64 {
	if o.Quick {
		return full / 10
	}
	return full
}

// Table is one reproduced table or figure, as rows of text cells.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row, stringifying cells.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case sim.Time:
			row[i] = fmt.Sprintf("%.1fs", v.Seconds())
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note records a caveat shown under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	// Size widths by the widest row, not the header: a row may carry more
	// cells than the header has columns.
	ncols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Func runs one experiment.
type Func func(Options) (*Table, error)

// Registry maps experiment IDs to their implementations.
var Registry = map[string]Func{}

func register(id string, f Func) { Registry[id] = f }

// IDs returns the registered experiment identifiers, sorted.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes an experiment by ID.
func Run(id string, o Options) (*Table, error) {
	f, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (valid: %s)", id, strings.Join(IDs(), ", "))
	}
	return f(o.withDefaults())
}

// --- shared machinery -----------------------------------------------------

// kernelConfig returns the default machine configuration with the options'
// cross-cutting knobs (seed, memory, tracing) applied. Experiments that
// build kernels directly must start from this so those knobs reach every
// machine.
func (o Options) kernelConfig() kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.MemoryBytes = o.MemoryBytes
	cfg.Seed = o.Seed
	cfg.Trace = o.Trace
	return cfg
}

// newKernel builds a machine for an experiment.
func newKernel(o Options, pol kernel.Policy) *kernel.Kernel {
	return newKernelFragmented(o, pol, 0, 0)
}

// newKernelFragmented builds a machine pre-fragmented with
// FragmentMemoryPinned(keep, pinned) (keep <= 0 = no fragmentation). The
// build-and-fragment warm-up is a shared prefix across every policy of an
// experiment, so by default it runs once per configuration through the
// process-wide snapshot cache and each machine is forked from the frozen
// result — bit-identical to fresh construction, minus the repeated warm-up.
//
// Unfragmented machines (keep <= 0) are always built directly: there is no
// warm-up to amortize, and lazy copy-on-write tables already make a fresh
// build O(#chunks), the same order as a fork. Options.NoSnapshotCache builds
// every machine directly — the reference path forks are checked against.
func newKernelFragmented(o Options, pol kernel.Policy, keep, pinned float64) *kernel.Kernel {
	cfg := o.kernelConfig()
	var k *kernel.Kernel
	if o.NoSnapshotCache || keep <= 0 {
		k = kernel.New(cfg, pol)
		if keep > 0 {
			k.FragmentMemoryPinned(keep, pinned)
		}
	} else {
		k = snapshot.Fork(cfg, pol, keep, pinned)
	}
	o.observe(k)
	return k
}

// runResult captures one workload's outcome. It holds plain values only, so
// a machine is garbage once the caller drops the kernel runConcurrent
// returns.
type runResult struct {
	Name       string
	Runtime    sim.Time
	Overhead   float64 // cumulative PMU MMU overhead
	Faults     int64
	HugeFaults int64
	Promotions int64
	OOM        bool
	HugeMapped mem.Regions // huge mappings when the run ended
}

// runConcurrent runs the given workload instances together under one policy
// and collects results. fragmentKeep > 0 pre-fragments the machine.
func runConcurrent(o Options, pol kernel.Policy, insts []*workload.Instance, names []string, fragmentKeep float64, deadline sim.Time) ([]runResult, *kernel.Kernel, error) {
	k := newKernelFragmented(o, pol, fragmentKeep, kernel.DefaultPinnedChunkFrac)
	if !o.NoTraceCache {
		// Swap each instance's steady phase onto the shared recorded trace.
		// The key pins everything its stream depends on: the machine
		// configuration (seed, quantum sampling), the fragmentation warm-up
		// (it advances the engine RNG the process streams fork from), the
		// sampler geometry, and the spawn index. AttachReplay declines —
		// leaving the instance on live sampling — for program shapes whose
		// RNG consumption it cannot vouch for.
		for i, inst := range insts {
			if inst.Sampler == nil {
				continue
			}
			inst.AttachReplay(workload.TraceKey{
				Cfg:       o.kernelConfig(),
				Keep:      fragmentKeep,
				Pinned:    kernel.DefaultPinnedChunkFrac,
				Geom:      inst.Sampler.Geometry(),
				ProcIndex: i,
			}, k.Trace)
		}
	}
	procs := make([]*kernel.Proc, len(insts))
	for i, inst := range insts {
		procs[i] = k.Spawn(names[i], inst.Program)
	}
	if err := k.Run(deadline); err != nil {
		return nil, k, err
	}
	out := make([]runResult, len(insts))
	for i, p := range procs {
		out[i] = runResult{
			Name:       names[i],
			Runtime:    p.Runtime(k.Now()),
			Overhead:   p.PMU.Overhead(),
			Faults:     p.Acct.Faults,
			HugeFaults: p.Acct.HugeFaults,
			Promotions: p.VP.Stats.Promotions,
			OOM:        p.OOMKilled,
			HugeMapped: p.VP.HugeMapped(),
		}
	}
	return out, k, nil
}

// speedup formats t_base/t as "1.23".
func speedup(base, t sim.Time) string {
	if t <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(base)/float64(t))
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }

// Small policy constructors shared by experiments (kept here to avoid
// importing the root facade, which would be an import cycle).
func policyNone() kernel.Policy     { return policy.NewNone() }
func policyLinux() kernel.Policy    { return policy.NewLinuxTHP() }
func policyIngens90() kernel.Policy { return policy.NewIngensUtil(0.9) }
