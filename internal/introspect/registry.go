// Package introspect is the simulator's live observability layer: a
// process-wide, concurrency-safe metrics registry plus an HTTP debug server
// (server.go) that exposes it while runs are in flight. It aggregates what
// the rest of the tree measures —
//
//   - global counters and histograms pushed from the runner (sweep cells
//     done, per-cell wall latency),
//   - pull gauges registered once per process by the byte-budget caches
//     (internal/cache instances: internal/snapshot's warm-up images and
//     internal/workload's access traces),
//   - and the per-run trace.Counters registries of recently built traced
//     machines, attached at construction and summed on scrape —
//
// so a 200-cell sweep or a long hawkeye-sim run can be watched live instead
// of only read back from files afterwards. This is the paper's own argument
// turned on the harness: decisions (here, "is this run healthy?") should
// come from fine-grained, continuously measured state, not post-hoc batch
// output. Both CLIs serve it with -debug-addr.
//
// Contract (held by the -race perturbation tests and the introspect_off
// bench gate):
//
//   - Pull-based and off the simulation path. Counters are uncontended
//     atomics, gauges are read only at scrape time, and the one push hook
//     that reaches into a running machine (the flight-recorder tee on
//     Recorder.Emit) costs a single atomic load while the debug server is
//     down. Nothing here allocates in a simulation hot loop.
//   - Zero perturbation. Scraping any endpoint during a run must leave
//     every simulated output — sweep CSV/JSON, experiment tables, trace
//     exports — byte-identical to an unscraped run. Metrics never feed back
//     into the simulation.
//   - Deterministic iteration. Snapshots walk names in sorted order, so two
//     scrapes of the same state are byte-identical and /metrics diffs
//     clean.
package introspect

import (
	"sort"
	"sync"
	"sync/atomic"

	"hawkeye/internal/trace"
)

// Counter is a process-wide monotonic counter. It is trace.Counter, the
// type of a machine's per-run counters, so one counter type serves both
// scopes. Handles are obtained once (GetCounter) and held at call sites; Add
// is one uncontended atomic. Nil-safe, so conditional call sites need no
// branch of their own.
type Counter = trace.Counter

// MetricType tags a scraped metric for the OpenMetrics exposition.
type MetricType uint8

// Metric types.
const (
	TypeCounter MetricType = iota
	TypeGauge
)

// String returns the OpenMetrics type name.
func (t MetricType) String() string {
	if t == TypeCounter {
		return "counter"
	}
	return "gauge"
}

// Metric is one (name, value) pair of a registry snapshot.
type Metric struct {
	Name  string
	Type  MetricType
	Value float64
}

// attached is one machine whose per-run counter registry the scrape sums,
// plus the flight ring teed from its recorder.
type attached struct {
	id     int64
	label  string
	cs     *trace.Counters
	flight *trace.Flight
}

// MaxAttached bounds the registry's view of traced machines: attaching
// beyond it drops the oldest entry, so a process that builds thousands of
// machines keeps a recent-window view instead of an unbounded list.
const MaxAttached = 64

// Registry is the process-wide metrics registry. The zero value is not
// usable; call NewRegistry (or use the package-level Default).
type Registry struct {
	// counters holds the global counters, under its own lock.
	counters *trace.Counters

	mu       sync.Mutex
	gauges   map[string]func() float64
	hists    map[string]*Histogram
	machines []*attached
	nextID   int64

	// armed is true while a debug server is running; it gates the push-side
	// costs that only matter when someone can look (flight-ring recording,
	// SSE publishing).
	armed atomic.Bool

	hub hub
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: trace.NewCounters(nil),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// std is the process-wide default registry every package-level helper
// targets; the debug server serves it.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// Counter returns the named global counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter { return r.counters.Counter(name) }

// Gauge registers a pull callback for name, replacing any previous one. The
// callback must be safe for concurrent use: it runs on scrape goroutines
// while the process works (internal/cache satisfies this by reading its
// mutex-guarded stats).
func (r *Registry) Gauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.hists[name] = h
	return h
}

// Attach registers a traced machine: its per-run counter registry is summed
// into scrapes and its recorder grows a flight ring served at /events. Must
// be called before the machine runs (SetFlight's contract). Machines beyond
// MaxAttached evict the oldest entry. A nil recorder (tracing off) is a
// no-op. Returns a detach func; callers that let machines age out instead
// may discard it.
func (r *Registry) Attach(label string, rec *trace.Recorder) func() {
	if rec == nil {
		return func() {}
	}
	fl := trace.NewFlight(trace.DefaultFlightCapacity, &r.armed)
	rec.SetFlight(fl)
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.machines = append(r.machines, &attached{id: id, label: label, cs: rec.Counters, flight: fl})
	if len(r.machines) > MaxAttached {
		r.machines = append(r.machines[:0], r.machines[1:]...)
	}
	r.mu.Unlock()
	return func() { r.detach(id) }
}

func (r *Registry) detach(id int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, m := range r.machines {
		if m.id == id {
			r.machines = append(r.machines[:i], r.machines[i+1:]...)
			return
		}
	}
}

// DetachAll drops every attached machine (test isolation). Global counters,
// gauges and histograms are registration, not run state, and survive.
func (r *Registry) DetachAll() {
	r.mu.Lock()
	r.machines = nil
	r.mu.Unlock()
}

// Armed reports whether a debug server is currently serving this registry.
func (r *Registry) Armed() bool { return r.armed.Load() }

// Snapshot scrapes the registry: the summed per-run counters of attached
// machines, overlaid by global counters, overlaid by global gauges — on a
// name collision the process-wide metric wins, never double-counting a
// value that is tracked both per machine and globally (trace_replay_hits,
// the cache byte counters). The result is sorted by name, so iteration
// order — and therefore /metrics output for equal values — is deterministic.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	machines := make([]*attached, len(r.machines))
	copy(machines, r.machines)
	type namedGauge struct {
		name string
		fn   func() float64
	}
	gauges := make([]namedGauge, 0, len(r.gauges)+1)
	for name, fn := range r.gauges {
		gauges = append(gauges, namedGauge{name, fn})
	}
	r.mu.Unlock()
	globals := r.counters.CounterSamples()

	vals := make(map[string]Metric)
	for _, m := range machines {
		for _, s := range m.cs.CounterSamples() {
			mv := vals[s.Name]
			mv.Name, mv.Type = s.Name, TypeCounter
			mv.Value += s.Value
			vals[s.Name] = mv
		}
	}
	for _, s := range globals {
		vals[s.Name] = Metric{Name: s.Name, Type: TypeCounter, Value: s.Value}
	}
	for _, g := range gauges {
		vals[g.name] = Metric{Name: g.name, Type: TypeGauge, Value: g.fn()}
	}
	vals["introspect_attached_machines"] = Metric{
		Name: "introspect_attached_machines", Type: TypeGauge, Value: float64(len(machines)),
	}

	out := make([]Metric, 0, len(vals))
	for _, m := range vals {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Histograms returns the registered histograms sorted by name.
func (r *Registry) Histograms() []*Histogram {
	r.mu.Lock()
	out := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, h)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// MachineEvents is one attached machine's flight-ring view.
type MachineEvents struct {
	Label  string
	Total  uint64 // events recorded since the server armed
	Events []trace.Event
}

// Machines snapshots every attached machine's flight ring, in attach order.
func (r *Registry) Machines() []MachineEvents {
	r.mu.Lock()
	machines := make([]*attached, len(r.machines))
	copy(machines, r.machines)
	r.mu.Unlock()
	out := make([]MachineEvents, len(machines))
	for i, m := range machines {
		out[i] = MachineEvents{Label: m.label, Total: m.flight.Total(), Events: m.flight.Events()}
	}
	return out
}

// --- package-level helpers on the default registry -------------------------

// GetCounter returns a global counter handle on the default registry.
func GetCounter(name string) *Counter { return std.Counter(name) }

// RegisterGauge registers a pull gauge on the default registry.
func RegisterGauge(name string, fn func() float64) { std.Gauge(name, fn) }

// GetHistogram returns a histogram handle on the default registry.
func GetHistogram(name string) *Histogram { return std.Histogram(name) }

// AttachMachine attaches a traced machine to the default registry (nil-safe,
// see Registry.Attach).
func AttachMachine(label string, rec *trace.Recorder) { std.Attach(label, rec) }

// Armed reports whether the default registry's debug server is running.
func Armed() bool { return std.Armed() }

// CacheStats is what a byte-budget cache (internal/cache) reports to
// RegisterCache.
type CacheStats struct {
	Entries       int
	ResidentBytes int64
	Evictions     int64
}

// RegisterCache registers the process-wide gauges of one named byte-budget
// cache on the default registry: <name>_entries, <name>_bytes (resident) and
// <name>_evict (cumulative). stats must be safe for concurrent use;
// cache.New calls this once per cache.
func RegisterCache(name string, stats func() CacheStats) {
	RegisterGauge(name+"_entries", func() float64 { return float64(stats().Entries) })
	RegisterGauge(name+"_bytes", func() float64 { return float64(stats().ResidentBytes) })
	RegisterGauge(name+"_evict", func() float64 { return float64(stats().Evictions) })
}

// CountCacheAttach records one cache use on a per-run recorder: the resident
// bytes of the image/trace this machine attached and how many entries the
// attach evicted. This is the one hook shape both process-wide caches stamp
// their per-machine counters through (vmstat keeps its deterministic
// per-machine values; the process-wide truth lives in the RegisterCache
// gauges). Nil-safe: the explicit guard keeps the name concatenation off the
// tracing-disabled path.
func CountCacheAttach(rec *trace.Recorder, prefix string, bytes, evicted int64) {
	if rec == nil {
		return
	}
	rec.Counter(prefix + "_bytes").Add(bytes)
	rec.Counter(prefix + "_evict").Add(evicted)
}
