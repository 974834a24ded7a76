package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestFirstOpsInProcess runs the first two ops of every workload through
// the child's code path, plain and traced, and checks their digests against
// the seed-1 goldens and the result line against BENCHMARK.json.
func TestFirstOpsInProcess(t *testing.T) {
	cfg, err := readConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	runtime.LockOSThread() // as childMain does, so thread CPU time is the op's
	defer runtime.UnlockOSThread()
	for _, w := range workloads {
		golden, err := goldens(1, w.name)
		if err != nil {
			t.Fatal(err)
		}
		ops := w.ops(1)[:2]
		var out bytes.Buffer
		if err := runOps(&out, ops, 1, false, time.Now()); err != nil {
			t.Fatal(err)
		}
		var cr childRun
		if err := readChild(&out, time.Now(), &cr); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		chk := newChecker(golden)
		for _, o := range cr.ops {
			if v := chk.check(o); v != verified {
				t.Errorf("%s %s: verdict %d, want verified (err %q)", w.name, o.ID, v, o.Err)
			}
			if o.ThreadNS <= 0 || o.ThreadNS > o.WallNS+int64(time.Millisecond) {
				t.Errorf("%s %s: thread CPU %d ns for a %d ns op", w.name, o.ID, o.ThreadNS, o.WallNS)
			}
		}
		traced := runOp(ops[0], 1, true, time.Now())
		if chk.check(traced) != verified {
			t.Errorf("%s %s: tracing changed the output (err %q)", w.name, traced.ID, traced.Err)
		}
		if traced.Counts["pgfault"] == 0 || traced.Events == 0 {
			t.Errorf("%s %s: traced op collected no counters (%d events)", w.name, traced.ID, traced.Events)
		}

		cr.wall, cr.cpu, cr.maxRSSMB = 1, 1, 100
		r := summarize(chk, nil, []childRun{cr})
		var line bytes.Buffer
		if err := json.NewEncoder(&line).Encode(r); err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(line.Bytes(), &keys); err != nil {
			t.Fatal(err)
		}
		if got := sortedNames(keys); !slices.Equal(got, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("%s: result keys %v", w.name, got)
		}
		var want []string
		for _, m := range cfg.EndToEnd {
			want = append(want, m.Name)
		}
		sort.Strings(want)
		if got := sortedNames(r.Metrics); !slices.Equal(got, want) {
			t.Errorf("%s: metrics %v, BENCHMARK.json end_to_end %v", w.name, got, want)
		}
		if !r.Correct || r.Attempted != 3 {
			t.Errorf("%s: correct %v attempted %d, want true, 3", w.name, r.Correct, r.Attempted)
		}
	}
}

// TestConfigMatchesMetrics holds BENCHMARK.json to the names and units the
// benchmark reports.
func TestConfigMatchesMetrics(t *testing.T) {
	cfg, err := readConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var cfgNames []string
	for _, w := range cfg.Workloads {
		cfgNames = append(cfgNames, w.Name)
	}
	if !slices.Equal(cfgNames, names) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", cfgNames, names)
	}
	check := func(kind string, want []string, got []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if i < len(want) && m.name != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, benchmark %q", kind, i, m.name, want[i])
			}
			if unit[m.name] != m.unit {
				t.Errorf("%s: unit of %s is %q in BENCHMARK.json, %q here", kind, m.name, m.unit, unit[m.name])
			}
		}
	}
	var e2e, layer []struct{ name, unit string }
	for _, m := range cfg.EndToEnd {
		e2e = append(e2e, struct{ name, unit string }{m.Name, m.Unit})
		if m.Better != "lower" {
			t.Errorf("%s: every end-to-end metric is a cost, better is lower", m.Name)
		}
	}
	for _, m := range cfg.PerLayer {
		layer = append(layer, struct{ name, unit string }{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}

func sortedNames[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
