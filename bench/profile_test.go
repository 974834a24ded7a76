package main

import (
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestParseAndBucketTracesFixture(t *testing.T) {
	txt, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseTraces(txt)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		op, layer string
		secs      float64
	}{
		{"linux/0.1/1", "cow", 0.01},     // go.shape.struct{...} receiver with spaces
		{"fig1", "cow", 0.01},            // inlined generic leaf
		{"fig5", "memo", 0.01},           // kernel/memo.go carve-out
		{"fig5", "memo", 0.01},           // internal/memo, inlined
		{"fig7", "runtime", 0.01},        // malloc leaf under a simulator caller
		{"", "runtime", 0.02},            // unlabelled GC worker
		{"ablation", "replay", 0.01},     // workload/trace.go carve-out
		{"table8", "mem", 0.03},          // stdlib sort leaf charged to its caller
		{"hawkeye-g/0.6/3", "tlb", 1.01}, // value in seconds
		{"hawkeye-g/0.6/3", "snapshot", 0.10},
		{"", "other", 0.01}, // the profiler's own writer
	}
	if len(samples) != len(want) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(want))
	}
	for i, w := range want {
		s := samples[i]
		if s.op != w.op || !near(s.secs, w.secs) || selfLayer(s.frames) != w.layer {
			t.Errorf("sample %d: op %q, %.2fs, layer %q; want %q, %.2fs, %q",
				i, s.op, s.secs, selfLayer(s.frames), w.op, w.secs, w.layer)
		}
	}

	ps := summarizeProfile(samples)
	if !near(ps.total, 1.23) || ps.samples != 123 {
		t.Errorf("total %.2fs over %d samples, want 1.23s over 123", ps.total, ps.samples)
	}
	var sum float64
	for _, l := range layers {
		sum += ps.self[l]
	}
	if !near(sum, ps.total) {
		t.Errorf("self buckets sum to %.2fs, profile total %.2fs", sum, ps.total)
	}
	for metric, secs := range map[string]float64{
		"kernel.steady_cpu_s":   1.05,
		"kernel.populate_cpu_s": 0.03,
		"kernel.fragment_cpu_s": 0.01,
		"kernel.fork_cpu_s":     0.10,
		"tlb.translate_cpu_s":   1.01,
		"mem.compact_cpu_s":     0.03,
		"workload.replay_cpu_s": 0.01,
		"sim.engine_cpu_s":      0.02,
		"runtime.gc_cpu_s":      0.02,
		"runtime.malloc_cpu_s":  0.01,
		"mem.alloc_cpu_s":       0,
	} {
		if !near(ps.incl[metric], secs) {
			t.Errorf("%s = %.2f, want %.2f", metric, ps.incl[metric], secs)
		}
	}
	if !near(ps.byOp["fig5"]["memo"], 0.02) || !near(ps.byOp["hawkeye-g/0.6/3"]["snapshot"], 0.10) {
		t.Errorf("per-op breakdown wrong: %v", ps.byOp)
	}
}

func TestPackagePath(t *testing.T) {
	for fn, want := range map[string]string{
		"hawkeye/internal/kernel.(*Kernel).SteadyRun":                  "hawkeye/internal/kernel",
		"hawkeye/internal/kernel.New.func1":                            "hawkeye/internal/kernel",
		"hawkeye/internal/mem/cow.Fork[go.shape.uint8]":                "hawkeye/internal/mem/cow",
		"hawkeye/internal/mem/cow.(*Table[go.shape.*hawkeye/x.T]).Mut": "hawkeye/internal/mem/cow",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "internal/runtime/maps",
		"main.runOp.func1":                        "main",
	} {
		if got := packagePath(fn); got != want {
			t.Errorf("packagePath(%q) = %q, want %q", fn, got, want)
		}
	}
}
