package hawkeye

import (
	"strings"
	"testing"

	"hawkeye/internal/experiments"
)

func TestNewPolicyRegistry(t *testing.T) {
	for _, name := range PolicyNames() {
		pol, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if pol == nil || pol.Name() == "" {
			t.Fatalf("NewPolicy(%q) returned bad policy", name)
		}
	}
	if _, err := NewPolicy("bogus"); err == nil {
		t.Fatal("bogus policy did not error")
	}
}

func TestWorkloadsListed(t *testing.T) {
	names := Workloads()
	if len(names) < 10 {
		t.Fatalf("only %d workloads listed", len(names))
	}
	for _, want := range []string{"graph500", "cg.D", "redis-light"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("workload %q missing", want)
		}
	}
}

func TestSimEndToEnd(t *testing.T) {
	sim := NewSim(Options{Policy: "hawkeye-g", MemoryBytes: 2 << 30, Scale: 1.0 / 48})
	w := sim.AddWorkload("sequential")
	sim.MustRun(0)
	if !w.Proc.Done {
		t.Fatal("workload did not finish")
	}
	report := sim.Report(w)
	if !strings.Contains(report, "sequential") || !strings.Contains(report, "runtime=") {
		t.Fatalf("bad report: %s", report)
	}
	if strings.Contains(report, "oom-killed") {
		t.Fatalf("finished workload reported as OOM-killed: %s", report)
	}
}

// TestReportMarksOOMKill runs a workload on a machine far too small for
// it: the kernel OOM-kills the process, which must say so in its report
// line rather than read as a run that did nothing.
func TestReportMarksOOMKill(t *testing.T) {
	sim := NewSim(Options{MemoryBytes: 48 << 20})
	w := sim.AddWorkload("cg.D")
	sim.MustRun(0)
	if !w.Proc.OOMKilled {
		t.Fatal("cg.D was not OOM-killed on a 48 MiB machine")
	}
	if report := sim.Report(w); !strings.HasSuffix(report, " oom-killed") {
		t.Fatalf("report of a killed process lacks the mark: %s", report)
	}
}

func TestSimFragmented(t *testing.T) {
	sim := NewSim(Options{Policy: "linux", MemoryBytes: 2 << 30, FragmentKeep: 0.1})
	if sim.K.Alloc.HugePageCapacity() != 0 {
		t.Fatal("fragmentation not applied")
	}
}

func TestHugePagesBeatBasePages(t *testing.T) {
	run := func(policy string) Time {
		sim := NewSim(Options{Policy: policy, MemoryBytes: 4 << 30, Scale: 1.0 / 24})
		w := sim.AddWorkload("random")
		sim.MustRun(0)
		return w.Proc.Runtime(sim.K.Now())
	}
	base := run("none")
	huge := run("hawkeye-g")
	if float64(base)/float64(huge) < 1.3 {
		t.Fatalf("hawkeye speedup %.2f on random, want > 1.3", float64(base)/float64(huge))
	}
}

// TestExperimentRegistryComplete verifies every paper table/figure has a
// registered reproduction.
func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table5", "table7", "table8", "table9",
		"fig1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	have := map[string]bool{}
	for _, id := range experiments.IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

// TestQuickExperimentsRun executes the fastest experiments end-to-end as a
// smoke test of the full harness plumbing.
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range []string{"fig3", "table1"} {
		tab, err := experiments.Run(id, experiments.Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		if tab.String() == "" {
			t.Fatalf("%s renders empty", id)
		}
	}
}

// TestDeterminism backs the README's reproducibility claim: identical
// options yield bit-identical results; different seeds diverge.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) string {
		sim := NewSim(Options{Policy: "hawkeye-g", MemoryBytes: 2 << 30, Scale: 1.0 / 48, Seed: seed})
		w := sim.AddWorkload("random")
		sim.MustRun(0)
		return sim.Report(w)
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if c := run(8); c == a {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}
