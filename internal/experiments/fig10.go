package experiments

import (
	"fmt"

	"hawkeye/internal/core"
	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/vmm"
	"hawkeye/internal/workload"
)

func init() { register("fig10", Fig10) }

// fig10Workloads pairs each victim workload with its cache sensitivity: the
// worst-case slowdown it suffers when a co-located thread zero-fills 0.25 M
// pages/s (1 GB/s) through the shared L3 with regular (temporal) stores.
// The values follow the paper's Fig. 10 measurements; the simulator has no
// data-cache model, so interference enters as a calibrated slowdown factor
// while the pre-zero thread is actually running at that rate (the thread,
// its rate limit, and its backlog are fully simulated).
var fig10Workloads = []struct {
	name        string
	spec        string
	temporal    float64 // measured slowdown with caching stores
	nonTemporal float64 // with non-temporal stores (residual memory traffic)
}{
	{"NPB-avg", "bt.D", 1.05, 1.015},
	{"Parsec-avg", "canneal", 1.06, 1.02},
	{"omnetpp", "omnetpp", 1.27, 1.06},
	{"xalancbmk", "xalancbmk", 1.18, 1.05},
	{"random-walk", "random-walk", 1.10, 1.03},
}

// Fig10 reproduces the pre-zeroing interference experiment of Fig. 10:
// victims run while the async pre-zero thread clears pages at 0.25 M
// pages/s on a sibling core, with and without non-temporal stores.
func Fig10(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "Worst-case overhead of async pre-zeroing at 1 GB/s, temporal vs non-temporal stores",
		Header: []string{"workload", "baseline", "temporal", "overhead", "non-temporal", "overhead"},
	}
	// Three runs per victim: no pre-zeroing, then temporal and non-temporal
	// stores at 0.25 M pages/s.
	runs, err := fanOut(o, 3*len(fig10Workloads), func(o Options, i int) (sim.Time, error) {
		w := fig10Workloads[i/3]
		spec := workload.Lookup(w.spec)
		spec.WorkSeconds = o.work(30)
		switch i % 3 {
		case 0:
			return fig10Run(o, spec, 0, 1)
		case 1:
			return fig10Run(o, spec, 250000, w.temporal)
		default:
			return fig10Run(o, spec, 250000, w.nonTemporal)
		}
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range fig10Workloads {
		base, temporal, nontemp := runs[3*wi], runs[3*wi+1], runs[3*wi+2]
		t.Add(w.name,
			base,
			temporal, pct(temporal.Seconds()/base.Seconds()-1),
			nontemp, pct(nontemp.Seconds()/base.Seconds()-1))
	}
	t.Note("paper: non-temporal stores cut the worst-case overhead from up to 27%% (omnetpp) to ≤ 6%%;")
	t.Note("the production thread is rate-limited to 10k pages/s, so real interference is proportionally smaller.")
	t.Note("cache-pollution factors are calibrated from the paper (no data-cache model); thread, rate and backlog are simulated.")
	return t, nil
}

// fig10Run runs the victim with a pre-zero thread at the given rate whose
// cache interference is `slowdown` while it has work.
func fig10Run(o Options, spec workload.Spec, zeroRate int64, slowdown float64) (sim.Time, error) {
	cfg := core.DefaultConfig(core.VariantG)
	cfg.HugeOnFault = true
	if zeroRate > 0 {
		cfg.PrezeroRate = zeroRate
		cfg.NonTemporal = slowdown <= 1
		cfg.CacheSlowdownTemporal = slowdown
	} else {
		cfg.PrezeroRate = 1 // effectively off
	}
	pol := core.New(cfg)
	k := newKernel(o, pol)
	// Feed the pre-zero thread: a churn process constantly dirties and
	// frees memory so the backlog never empties (worst case).
	churnPages := k.Alloc.TotalPages() / 4
	k.Spawn("churn", &churnProgram{pages: churnPages})
	if !cfg.NonTemporal {
		// Temporal mode's interference applies while the thread runs.
		k.SlowdownFactor = slowdown
	}
	inst := workload.New(spec, o.Scale/2)
	p := k.Spawn("victim", inst.Program)
	k.Engine.Every(sim.Second, "victim-done", func(e *sim.Engine) (bool, error) {
		if p.Done {
			e.Stop()
			return false, nil
		}
		return true, nil
	})
	if err := k.Run(sim.Time(o.work(3000)) * sim.Second); err != nil {
		return 0, err
	}
	return p.Runtime(k.Now()), nil
}

// churnProgram repeatedly touches and frees a buffer, dirtying free memory.
type churnProgram struct {
	pages mem.Pages
	next  mem.Pages
}

func (c *churnProgram) Step(k *kernel.Kernel, p *kernel.Proc) (sim.Time, bool, error) {
	var consumed sim.Time
	for i := mem.Pages(0); i < 4096 && consumed < k.Cfg.Quantum/2; i++ {
		cost, err := k.Touch(p, vmm.VPN(0).Advance(c.next%c.pages), true)
		if err != nil {
			return consumed, false, err
		}
		consumed += cost
		c.next++
		if c.next%c.pages == 0 {
			consumed += k.Madvise(p, 0, c.pages)
		}
	}
	return consumed + sim.Millisecond, false, nil
}

var _ = mem.PageSize
var _ = fmt.Sprint
