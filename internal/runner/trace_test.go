package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"strings"
	"testing"

	"hawkeye/internal/experiments"
	"hawkeye/internal/trace"
	"hawkeye/internal/workload"
)

// traceOpts enables tracing (with sampling) on top of the fast test options.
func traceOpts() experiments.Options {
	opts := testOpts()
	opts.Trace = &trace.Config{SampleEvery: 100 * 1000} // 100 ms
	return opts
}

// exportAll renders every traced machine of a result to JSONL + vmstat text,
// concatenated in machine-creation order with label headers.
func exportAll(t *testing.T, res Result) (jsonl, vmstat string) {
	t.Helper()
	var j, v bytes.Buffer
	for _, e := range res.Traces.Entries() {
		j.WriteString("## " + e.Label + "\n")
		v.WriteString("## " + e.Label + "\n")
		if err := e.Trace.WriteJSONL(&j); err != nil {
			t.Fatalf("%s: WriteJSONL: %v", e.Label, err)
		}
		if err := e.Trace.WriteVmstat(&v); err != nil {
			t.Fatalf("%s: WriteVmstat: %v", e.Label, err)
		}
	}
	return j.String(), v.String()
}

// TestTraceDeterminism is the tracing golden gate: the same seeded
// experiment run twice with tracing enabled must export byte-identical
// JSONL event streams and vmstat snapshots, and a third run with tracing
// disabled must produce the identical result table (tracing is passive).
func TestTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation; skipped in -short")
	}
	const id = "table3"

	runTraced := func() Result {
		results := Run([]string{id}, traceOpts(), 1)
		res := results[0]
		if res.Error != "" {
			t.Fatalf("%s: %s", id, res.Error)
		}
		if res.Traces == nil || len(res.Traces.Entries()) == 0 {
			t.Fatalf("%s: tracing enabled but no machines collected", id)
		}
		return res
	}

	res1 := runTraced()
	res2 := runTraced()

	j1, v1 := exportAll(t, res1)
	j2, v2 := exportAll(t, res2)
	if j1 != j2 {
		t.Errorf("%s: JSONL event streams differ between identical runs", id)
	}
	if v1 != v2 {
		t.Errorf("%s: vmstat snapshots differ between identical runs", id)
	}
	if !strings.Contains(j1, "\"kind\":\"page_fault\"") {
		t.Errorf("%s: no page_fault events traced", id)
	}
	if !strings.Contains(v1, "pgfault ") {
		t.Errorf("%s: vmstat snapshot missing pgfault counter", id)
	}

	// Tracing must be invisible to results: an untraced run renders the
	// same table.
	plain := Run([]string{id}, testOpts(), 1)[0]
	if plain.Error != "" {
		t.Fatalf("untraced %s: %s", id, plain.Error)
	}
	if plain.Table != res1.Table {
		t.Errorf("%s: traced table differs from untraced table\nuntraced:\n%s\ntraced:\n%s",
			id, plain.Table, res1.Table)
	}
	if plain.Traces != nil {
		t.Errorf("%s: untraced run collected traces", id)
	}

	// Sampling produced counter series on at least one machine.
	sampled := false
	for _, e := range res1.Traces.Entries() {
		for _, name := range e.Series.Names() {
			if strings.HasPrefix(name, "vmstat/") {
				sampled = true
			}
		}
	}
	if !sampled {
		t.Errorf("%s: sampler recorded no vmstat/ series", id)
	}
}

// TestTraceChromeExport runs a quick fig5 and schema-validates the Chrome
// trace_event JSON of every traced machine: required fields present, ts
// monotone per track, at least one named process track. The same run at
// GOMAXPROCS 1 (every machine inline) and at 4 must export the same labels,
// JSONL and vmstat byte for byte.
func TestTraceChromeExport(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation; skipped in -short")
	}
	if !raceEnabled {
		// The comparison is about output equality, which race
		// instrumentation cannot affect; under -race the machines two more
		// traced fig5 runs keep alive (the vmstat gauges read them) stall an
		// 8 GB host. Each run starts from an empty trace cache: a machine's
		// trace_replay_hits counts the chunks earlier machines recorded.
		defer workload.TraceCache.Reset()
		digest := func(procs int) [sha256.Size]byte {
			workload.TraceCache.Reset()
			var res Result
			withProcs(procs, func() { res = Run([]string{"fig5"}, traceOpts(), 1)[0] })
			if res.Error != "" {
				t.Fatalf("fig5 at GOMAXPROCS %d: %s", procs, res.Error)
			}
			j, v := exportAll(t, res)
			return sha256.Sum256([]byte(j + v))
		}
		if digest(1) != digest(4) {
			t.Error("fig5: labels, JSONL or vmstat differ between GOMAXPROCS 1 and 4")
		}
	}
	res := Run([]string{"fig5"}, traceOpts(), 1)[0]
	if res.Error != "" {
		t.Fatalf("fig5: %s", res.Error)
	}
	entries := res.Traces.Entries()
	if len(entries) == 0 {
		t.Fatal("fig5: no traced machines")
	}
	for _, e := range entries {
		var b bytes.Buffer
		if err := e.Trace.WriteChromeTrace(&b); err != nil {
			t.Fatalf("%s: WriteChromeTrace: %v", e.Label, err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
			t.Fatalf("%s: invalid Chrome trace JSON: %v", e.Label, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("%s: empty traceEvents", e.Label)
			continue
		}
		procTracks := 0
		lastTs := map[float64]float64{}
		for i, ev := range doc.TraceEvents {
			for _, k := range []string{"name", "ph", "pid", "tid"} {
				if _, ok := ev[k]; !ok {
					t.Fatalf("%s: event %d missing %q", e.Label, i, k)
				}
			}
			if ev["ph"] == "M" {
				if ev["name"] == "thread_name" {
					if tid, ok := ev["tid"].(float64); ok && tid < 1<<20 {
						procTracks++
					}
				}
				continue
			}
			ts, ok := ev["ts"].(float64)
			if !ok {
				t.Fatalf("%s: event %d has no numeric ts", e.Label, i)
			}
			tid := ev["tid"].(float64)
			if prev, seen := lastTs[tid]; seen && ts < prev {
				t.Errorf("%s: event %d ts %v < %v on track %v", e.Label, i, ts, prev, tid)
				break
			}
			lastTs[tid] = ts
		}
		if procTracks == 0 {
			t.Errorf("%s: no named process tracks in Chrome trace", e.Label)
		}
	}
}
