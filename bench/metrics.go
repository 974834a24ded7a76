package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// endToEnd are the timed run's metrics that go into its JSON line. Every one
// is reported on every workload; BENCHMARK.json lists the same names and
// units, and a test holds the two together. The op percentiles op_p50_ms
// and op_p90_ms are printed but left out: one op's time varies by 20–30 %
// from run to run on a shared host, and paper-quick has only 18 unlike
// ops, so there they are single experiments' times that no bound can hold.
var endToEnd = []string{"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}

// perLayer are the traced run's metrics that go into its JSON line: those
// non-zero on every workload, at least a few profile samples deep, that an
// optimisation is likely to move. The traced run prints every layer and
// entry point besides, with its sample count.
var perLayer = []string{
	"tlb.self_cpu_s", "vmm.self_cpu_s", "mem.self_cpu_s", "cow.self_cpu_s",
	"content.self_cpu_s", "kernel.self_cpu_s", "sim.self_cpu_s", "core.self_cpu_s",
	"trace.self_cpu_s", "memo.self_cpu_s", "replay.self_cpu_s", "runtime.self_cpu_s",
	"kernel.steady_cpu_s", "kernel.populate_cpu_s", "kernel.fragment_cpu_s",
	"kernel.promote_cpu_s", "tlb.translate_cpu_s", "mem.alloc_cpu_s",
	"workload.replay_cpu_s", "sim.engine_cpu_s", "runtime.malloc_cpu_s",
	"kernel.pgfault", "kernel.thp_collapse_alloc", "mem.compact_success",
	"mem.compact_fail", "mem.compact_pages_moved", "tlb.shootdown", "tlb.walk_cycles",
	"cow.dirty_chunks", "snapshot.forks", "replay.hits",
	"memo.hits", "memo.miss", "memo.invalidate", "memo.hit_ratio",
	"sim.events", "profile.samples", "runtime.alloc_mb", "trace.overhead_frac",
}

// unit is the unit of every metric either run computes.
var unit = map[string]string{
	"wall_s":              "s",
	"cpu_s":               "s",
	"setup_s":             "s",
	"op_p50_ms":           "ms",
	"op_p90_ms":           "ms",
	"peak_rss_mb":         "MB",
	"tlb.walk_cycles":     "cycles",
	"profile.samples":     "count",
	"sim.events":          "count",
	"memo.hit_ratio":      "ratio",
	"runtime.alloc_mb":    "MB",
	"trace.overhead_frac": "ratio",
}

func init() {
	for _, l := range layers {
		unit[l+".self_cpu_s"] = "s"
	}
	for _, e := range entryPoints {
		unit[e.metric] = "s"
	}
	for _, c := range workCounts {
		if _, ok := unit[c.metric]; !ok {
			unit[c.metric] = "count"
		}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last, plus what only the human
// report shows: notes and the metrics left out of the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	inJSON map[string]bool
	order  []string
	shown  map[string]metric
	notes  []string
}

// newResult starts a result whose JSON line carries the metrics named in
// keep; it takes the op tallies from chk.
func newResult(chk *checker, keep []string) result {
	r := result{
		Attempted: chk.attempted(),
		Failed:    chk.counts[failed],
		Metrics:   map[string]metric{},
		inJSON:    map[string]bool{},
		shown:     map[string]metric{},
	}
	for _, k := range keep {
		r.inJSON[k] = true
	}
	r.Correct = r.Failed == 0
	r.notes = append(r.notes, fmt.Sprintf("ops: %d verified against goldens, %d unverified, %d failed",
		chk.counts[verified], chk.counts[unverified], chk.counts[failed]))
	for _, f := range chk.failures {
		r.notes = append(r.notes, "FAILED "+f)
	}
	return r
}

// put records a metric. A value that is not a number (an empty sample set)
// is stored as 0 so the JSON stays valid; the notes say why.
func (r *result) put(name string, v float64) {
	u, ok := unit[name]
	if !ok {
		panic("bench: metric without a unit: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.notes = append(r.notes, name+": no samples")
		v = 0
	}
	m := metric{Value: v, Unit: u}
	r.shown[name] = m
	r.order = append(r.order, name)
	if r.inJSON[name] {
		r.Metrics[name] = m
	}
}

// print writes the human report, then the JSON line. Metrics the JSON line
// leaves out are marked with a dash.
func (r result) print(w workload, seed uint64) error {
	o := baseOptions(seed).WithDefaults()
	fmt.Printf("== %s  seed %d  scale %g  quick %t  machine %d MiB\n", w.name, seed, o.Scale, o.Quick, o.MemoryBytes>>20)
	for _, n := range r.notes {
		fmt.Printf("   %s\n", n)
	}
	for _, name := range r.order {
		m := r.shown[name]
		mark := " "
		if !r.inJSON[name] {
			mark = "-"
		}
		fmt.Printf(" %s %-28s %18.4f %s\n", mark, name, m.Value, m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
