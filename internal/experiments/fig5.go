package experiments

import (
	"fmt"

	"hawkeye/internal/core"
	"hawkeye/internal/kernel"
	"hawkeye/internal/policy"
	"hawkeye/internal/sim"
	"hawkeye/internal/workload"
)

func init() {
	register("fig5", Fig5)
	register("fig6", Fig6)
	register("table5", Table5)
	register("fig7", Table5) // fig7 is the fairness timeline behind table5
}

// recoveryPolicies are the contenders of the fragmented-recovery
// experiments (§4, Figs. 5–7, Table 5). Quick mode compresses workload
// durations ~10x, so daemon rates are scaled up by the same factor to keep
// the promotion-vs-runtime shape faithful.
func recoveryPolicies(o Options) []struct {
	name string
	make func() kernel.Policy
} {
	f := 1.0
	if o.Quick {
		f = 10
	}
	return []struct {
		name string
		make func() kernel.Policy
	}{
		{"linux-4k", func() kernel.Policy { return policy.NewNone() }},
		{"linux", func() kernel.Policy { p := policy.NewLinuxTHP(); p.ScanRate *= f; return p }},
		{"ingens", func() kernel.Policy { p := policy.NewIngens(); p.ScanRate *= f; return p }},
		{"hawkeye-pmu", func() kernel.Policy { return quickHawkEye(core.VariantPMU, f) }},
		{"hawkeye-g", func() kernel.Policy { return quickHawkEye(core.VariantG, f) }},
	}
}

// quickHawkEye scales HawkEye's daemon cadence by the time-compression
// factor.
func quickHawkEye(v core.Variant, f float64) *core.HawkEye {
	c := core.DefaultConfig(v)
	c.PromoteRate *= f
	c.BloatScanRate = int(float64(c.BloatScanRate) * f)
	if f > 1 {
		c.SamplePeriod = sim.Time(float64(c.SamplePeriod) / f)
		if c.SampleWindow > c.SamplePeriod/2 {
			c.SampleWindow = c.SamplePeriod / 2
		}
	}
	return core.New(c)
}

// fragKeep is the page-cache residue used to fragment machines before the
// recovery experiments.
const fragKeep = 0.15

// Fig5 reproduces Fig. 5: starting from a fragmented machine, how much
// performance each policy recovers versus never promoting, and how much
// execution time each huge-page promotion buys (the cost-benefit metric the
// paper introduces).
func Fig5(o Options) (*Table, error) {
	names := []string{"graph500", "xsbench", "cg.D"}
	pols := recoveryPolicies(o)
	runs, err := fanOutReplay(o, len(names)*len(pols), func(o Options, i int) (runResult, error) {
		name := names[i/len(pols)]
		spec := workload.Lookup(name)
		spec.WorkSeconds = o.work(spec.WorkSeconds)
		inst := workload.New(spec, o.Scale)
		res, _, err := runConcurrent(o, pols[i%len(pols)].make(), []*workload.Instance{inst}, []string{name}, fragKeep, 0)
		if err != nil {
			return runResult{}, err
		}
		return res[0], nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig5",
		Title:  "Speedup and execution time saved per promotion, fragmented machine",
		Header: []string{"workload", "policy", "runtime", "speedup-vs-4k", "promotions", "sec-saved/promo"},
	}
	for ni, name := range names {
		var baseline sim.Time
		for pi, pc := range pols {
			r := runs[ni*len(pols)+pi]
			if pc.name == "linux-4k" {
				baseline = r.Runtime
			}
			saved := "-"
			if r.Promotions > 0 && baseline > r.Runtime {
				saved = fmt.Sprintf("%.3f", (baseline-r.Runtime).Seconds()/float64(r.Promotions))
			}
			t.Add(name, pc.name, r.Runtime, speedup(baseline, r.Runtime), r.Promotions, saved)
		}
	}
	t.Note("paper: HawkEye speedups up to 22%%; 13%%/12%%/6%% over Linux and Ingens for Graph500/XSBench/cg.D;")
	t.Note("paper: HawkEye-G and -PMU up to 6.7x and 44x more time saved per promotion than Linux (XSBench).")
	return t, nil
}

// Fig6 reproduces the Fig. 6 timelines: MMU overhead and huge-page counts
// over time for Graph500 and XSBench during recovery from fragmentation.
// Hot spots sit in high virtual addresses, so VA-order scanners (Linux,
// Ingens) stay slow for a long time while HawkEye goes straight to them.
func Fig6(o Options) (*Table, error) {
	names := []string{"graph500", "xsbench"}
	sampleAt := []sim.Time{30 * sim.Second, 100 * sim.Second, 300 * sim.Second, 600 * sim.Second, 1000 * sim.Second}
	if o.Quick {
		sampleAt = []sim.Time{10 * sim.Second, 30 * sim.Second, 60 * sim.Second, 100 * sim.Second, 150 * sim.Second}
	}
	t := &Table{
		ID:     "fig6",
		Title:  "MMU overhead over time while recovering from fragmentation",
		Header: []string{"workload", "policy"},
	}
	for _, at := range sampleAt {
		t.Header = append(t.Header, fmt.Sprintf("ov@%ds", int64(at.Seconds())))
	}
	t.Header = append(t.Header, "huge-final")
	for _, name := range names {
		spec := workload.Lookup(name)
		spec.WorkSeconds = o.work(spec.WorkSeconds)
		for _, pc := range recoveryPolicies(o) {
			if pc.name == "linux-4k" {
				continue
			}
			inst := workload.New(spec, o.Scale)
			res, k, err := runConcurrent(o, pc.make(), []*workload.Instance{inst}, []string{name}, fragKeep, 0)
			if err != nil {
				return nil, err
			}
			series := k.Rec.Series("mmu/" + name)
			row := []any{name, pc.name}
			for _, at := range sampleAt {
				row = append(row, pct(series.At(at)))
			}
			row = append(row, res[0].HugeMapped)
			t.Add(row...)
		}
	}
	t.Note("paper: both HawkEye variants eliminate XSBench's overhead in ≈300s; Linux and Ingens are still paying after 1000s.")
	return t, nil
}

// Table5 reproduces Table 5 (and the Fig. 7 fairness behaviour behind it):
// three identical instances of Graph500, then XSBench, run concurrently on
// a fragmented machine. Linux promotes one process at a time (FCFS),
// Ingens spreads huge pages proportionally but over the wrong regions;
// HawkEye equalizes MMU overheads and finishes all instances sooner.
func Table5(o Options) (*Table, error) {
	names := []string{"graph500", "xsbench"}
	t := &Table{
		ID:     "table5",
		Title:  "Three identical instances on a fragmented machine",
		Header: []string{"workload", "policy", "t1", "t2", "t3", "avg", "spread", "speedup-vs-4k"},
	}
	pols := recoveryPolicies(o)
	runs, err := fanOutReplay(o, len(names)*len(pols), func(o Options, i int) ([]runResult, error) {
		name := names[i/len(pols)]
		spec := workload.Lookup(name)
		spec.WorkSeconds = o.work(spec.WorkSeconds / 2)
		insts := []*workload.Instance{}
		labels := []string{}
		for j := 1; j <= 3; j++ {
			insts = append(insts, workload.New(spec, o.Scale))
			labels = append(labels, fmt.Sprintf("%s-%d", name, j))
		}
		res, _, err := runConcurrent(o, pols[i%len(pols)].make(), insts, labels, fragKeep, 0)
		return res, err
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		var baselineAvg sim.Time
		for pi, pc := range pols {
			res := runs[ni*len(pols)+pi]
			var sum, min, max sim.Time
			for i, r := range res {
				sum += r.Runtime
				if i == 0 || r.Runtime < min {
					min = r.Runtime
				}
				if r.Runtime > max {
					max = r.Runtime
				}
			}
			avg := sum / 3
			if pc.name == "linux-4k" {
				baselineAvg = avg
			}
			t.Add(name, pc.name, res[0].Runtime, res[1].Runtime, res[2].Runtime,
				avg, max-min, speedup(baselineAvg, avg))
		}
	}
	t.Note("paper Table 5 averages: Graph500 — linux 1.02, ingens 1.01, hawkeye-pmu 1.14, hawkeye-g 1.13;")
	t.Note("paper: XSBench — linux 1.00, ingens 1.00, hawkeye-pmu 1.15, hawkeye-g 1.15. Spread captures Fig. 7's fairness.")
	return t, nil
}
