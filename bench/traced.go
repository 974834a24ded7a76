package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// workCounts maps a per-layer work metric to the vmstat counter (or gauge)
// it sums over every machine an op builds.
var workCounts = []struct{ metric, counter string }{
	{"kernel.pgfault", "pgfault"},
	{"kernel.pgmajfault", "pgmajfault"},
	{"kernel.thp_fault_alloc", "thp_fault_alloc"},
	{"kernel.thp_collapse_alloc", "thp_collapse_alloc"},
	{"kernel.thp_split", "thp_split"},
	{"kernel.cow_break", "cow_break"},
	{"kernel.oom_kill", "oom_kill"},
	{"mem.compact_success", "compact_success"},
	{"mem.compact_fail", "compact_fail"},
	{"mem.compact_pages_moved", "compact_pages_moved"},
	{"tlb.shootdown", "tlb_shootdown"},
	{"tlb.walk_cycles", "walk_cycles"},
	{"vmm.thp_dedup_pages", "thp_dedup_pages"},
	{"ksm.pages_merged", "ksm_pages_merged"},
	{"cow.dirty_chunks", "snapshot_cow_dirty_chunks"},
	{"snapshot.forks", "snapshot_fork"},
	{"replay.hits", "trace_replay_hits"},
	{"memo.hits", "chunk_effect_hits"},
	{"memo.miss", "chunk_effect_miss"},
	{"memo.invalidate", "chunk_effect_invalidate"},
}

// tracedRun is the per-layer measurement of one workload: one plain pass,
// whose wall time and allocation are the reference, then one pass with the
// CPU profiler on, tracing on and each op under a pprof label. Its per-layer
// numbers attribute time; they are never a gate, since profiling and
// tracing add their own cost.
func tracedRun(w workload, seed uint64, out string) (result, error) {
	golden, err := goldens(seed, w.name)
	if err != nil {
		return result{}, err
	}
	chk := newChecker(golden)
	for _, d := range []string{"profiles", "spans"} {
		if err := os.MkdirAll(filepath.Join(out, d), 0o755); err != nil {
			return result{}, err
		}
	}
	base := fmt.Sprintf("%s-seed%d", w.name, seed)
	prof := filepath.Join(out, "profiles", base+".pprof")

	plain, err := spawn(w, seed, 0, "")
	if err != nil {
		return result{}, err
	}
	traced, err := spawn(w, seed, 0, prof)
	if err != nil {
		return result{}, err
	}
	for _, cr := range []childRun{plain, traced} {
		for _, o := range cr.ops {
			chk.check(o)
		}
	}
	txt, err := pprofTraces(prof)
	if err != nil {
		return result{}, err
	}
	if err := os.WriteFile(prof+".txt", txt, 0o644); err != nil {
		return result{}, err
	}
	samples, err := parseTraces(txt)
	if err != nil {
		return result{}, err
	}
	ps := summarizeProfile(samples)

	// CPU profiles sample in 10 ms steps; scaling each share by the traced
	// child's rusage CPU keeps two runs' small buckets from reading alike.
	toCPU := share(traced.cpu, ps.total)
	r := newResult(chk, perLayer)
	r.notes = append(r.notes, fmt.Sprintf("profile: %d samples, %.2f s of the traced pass's %.2f s CPU; a layer below 30 samples is noise of ±20%%",
		ps.samples, ps.total, traced.cpu))
	for _, l := range layers {
		r.put(l+".self_cpu_s", ps.self[l]*toCPU)
		r.notes = append(r.notes, fmt.Sprintf("%-12s %6d samples %6.1f%% of CPU", l, ps.counts[l], 100*share(ps.self[l], ps.total)))
	}
	r.put("profile.samples", float64(ps.samples))
	for _, e := range entryPoints {
		r.put(e.metric, ps.incl[e.metric]*toCPU)
	}
	counts := map[string]float64{}
	var events uint64
	for _, o := range traced.ops {
		for k, v := range o.Counts {
			counts[k] += v
		}
		events += o.Events
	}
	for _, c := range workCounts {
		r.put(c.metric, counts[c.counter])
	}
	r.put("sim.events", float64(events))
	hits, miss := counts["chunk_effect_hits"], counts["chunk_effect_miss"]
	r.put("memo.hit_ratio", share(hits, hits+miss))
	r.put("runtime.alloc_mb", float64(plain.totalAlloc)/(1<<20))
	r.put("trace.overhead_frac", traced.wall/(plain.wall-plain.calSeconds())-1)

	spans := filepath.Join(out, "spans", base+".json")
	if err := writeSpans(spans, w, seed, traced, ps); err != nil {
		return result{}, err
	}
	r.notes = append(r.notes, "spans: "+spans, "profile: "+prof+" (text: .txt beside it)")
	return r, nil
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// pprofTraces runs `go tool pprof -traces -lines` on a CPU profile.
func pprofTraces(profile string) ([]byte, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("traced run needs the go tool: %w", err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", "-lines", profile)
	cmd.Stderr = os.Stderr
	txt, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return txt, nil
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeSpans writes the traced pass as Chrome-trace JSON: a root span for
// the workload and one child span per op, sharing a run ID. Each op span
// carries its self CPU per layer, taken from the samples labelled with it.
func writeSpans(path string, w workload, seed uint64, traced childRun, ps profileSummary) error {
	runID := fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano())
	events := []chromeEvent{{
		Name: w.name, Cat: "workload", Ph: "X", PID: 1, TID: 1,
		Dur: traced.wall * 1e6,
		Args: map[string]any{
			"run_id":              runID,
			"seed":                seed,
			"setup_s":             traced.setup,
			"unlabelled_cpu_s":    ps.byOp[""],
			"profile_total_cpu_s": ps.total,
		},
	}}
	for _, o := range traced.ops {
		args := map[string]any{
			"run_id":     runID,
			"parent":     w.name,
			"digest":     o.Digest,
			"self_cpu_s": ps.byOp[o.ID],
			"events":     o.Events,
			"counts":     o.Counts,
		}
		if o.Err != "" {
			args["error"] = o.Err
		}
		events = append(events, chromeEvent{
			Name: o.ID, Cat: "op", Ph: "X", PID: 1, TID: 1,
			TS: float64(o.StartNS) / 1e3, Dur: float64(o.WallNS) / 1e3,
			Args: args,
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
