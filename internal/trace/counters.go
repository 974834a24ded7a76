package trace

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"hawkeye/internal/sim"
)

// Counter is a named monotonic counter. Hook sites hold *Counter handles
// that are nil when tracing is disabled; all methods are nil-safe, so the
// disabled cost is a single branch. Increments and reads are atomic so the
// process-wide introspection registry can scrape a live machine's counters
// from another goroutine (the enabled cost is one uncontended atomic add).
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name ("" on a nil handle).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// gauge is a named pull callback sampled at snapshot time.
type gauge struct {
	name string
	fn   func() float64
}

// Counters is a machine's vmstat-style registry: monotonic counters pushed
// from hook sites plus pull gauges read at snapshot time. Snapshots walk
// registration order, never map order, so output is deterministic.
//
// Concurrency: registration and snapshot walks are mutex-guarded and counter
// values are atomic, so CounterSamples may be called from a scrape goroutine
// while the machine runs. Gauges are excluded from that guarantee — their
// callbacks read live simulation state and are only safe once the machine is
// quiescent (Snapshot/WriteVmstat are post-run exports).
type Counters struct {
	clock *sim.Clock

	mu       sync.Mutex
	counters []*Counter
	gauges   []gauge
	byName   map[string]*Counter
}

// NewCounters builds an empty registry stamped from the given clock.
func NewCounters(clock *sim.Clock) *Counters {
	return &Counters{clock: clock, byName: make(map[string]*Counter)}
}

// Counter returns the named counter, registering it on first use. Safe on a
// nil registry (returns a nil, still-safe handle).
func (cs *Counters) Counter(name string) *Counter {
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c, ok := cs.byName[name]; ok {
		return c
	}
	c := &Counter{name: name}
	cs.byName[name] = c
	cs.counters = append(cs.counters, c)
	return c
}

// Gauge registers a pull gauge. Registering the same name twice panics: a
// gauge has exactly one source of truth. Safe on a nil registry.
func (cs *Counters) Gauge(name string, fn func() float64) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, g := range cs.gauges {
		if g.name == name {
			panic(fmt.Sprintf("trace: gauge %q registered twice", name))
		}
	}
	cs.gauges = append(cs.gauges, gauge{name: name, fn: fn})
}

// freeze points the registry at clock and replaces every gauge callback
// with one that returns the gauge's current value (Recorder.Freeze).
func (cs *Counters) freeze(clock *sim.Clock) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.clock = clock
	for i := range cs.gauges {
		v := cs.gauges[i].fn()
		cs.gauges[i].fn = func() float64 { return v }
	}
}

// Sample is one (name, value) pair of a snapshot.
type Sample struct {
	Name  string
	Value float64
}

// Snapshot reads every counter, then every gauge, in registration order.
func (cs *Counters) Snapshot() []Sample {
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]Sample, 0, len(cs.counters)+len(cs.gauges))
	for _, c := range cs.counters {
		out = append(out, Sample{Name: c.name, Value: float64(c.v.Load())})
	}
	for _, g := range cs.gauges {
		out = append(out, Sample{Name: g.name, Value: g.fn()})
	}
	return out
}

// CounterSamples reads just the pushed counters, in registration order. This
// is the scrape-safe subset of Snapshot: counter values are atomic and the
// registration list is locked, so it may run concurrently with the simulation
// that owns the registry. Gauge callbacks (which read live machine state) are
// deliberately excluded.
func (cs *Counters) CounterSamples() []Sample {
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]Sample, 0, len(cs.counters))
	for _, c := range cs.counters {
		out = append(out, Sample{Name: c.name, Value: float64(c.v.Load())})
	}
	return out
}

// WriteVmstat writes a /proc/vmstat-style text snapshot: one "name value"
// line per counter/gauge, preceded by the simulated timestamp. Counters
// print as integers, gauges with the shortest exact float form, so two runs
// of the same seeded simulation produce byte-identical snapshots.
func (cs *Counters) WriteVmstat(w io.Writer) error {
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, err := fmt.Fprintf(w, "sim_time_us %d\n", int64(cs.clock.Now())); err != nil {
		return err
	}
	for _, c := range cs.counters {
		if _, err := fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load()); err != nil {
			return err
		}
	}
	for _, g := range cs.gauges {
		if _, err := fmt.Fprintf(w, "%s %s\n", g.name, strconv.FormatFloat(g.fn(), 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}
