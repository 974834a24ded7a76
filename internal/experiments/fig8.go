package experiments

import (
	"fmt"

	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/workload"
)

func init() { register("fig8", Fig8) }

// Fig8 reproduces the heterogeneous-fairness experiment of Fig. 8: a
// TLB-sensitive application shares a fragmented machine with a lightly
// loaded Redis server (40 M keys, uniform queries: enormous footprint,
// negligible TLB pressure). Each pair runs twice — TLB-sensitive launched
// before and after Redis — because Linux's FCFS khugepaged makes launch
// order decide who gets huge pages. Ingens favours Redis (more memory,
// uniformly touched); HawkEye promotes by (estimated or measured) MMU
// overhead and is order-agnostic.
func Fig8(o Options) (*Table, error) {
	sensitives := []string{"cg.D", "graph500", "xsbench"}
	pols := recoveryPolicies(o)
	orders := []bool{true, false} // app launched before redis, then after
	runs, err := fanOut(o, len(sensitives)*len(pols)*len(orders), func(o Options, i int) (heteroRun, error) {
		spec := workload.Lookup(sensitives[i/(len(pols)*len(orders))])
		spec.WorkSeconds = o.work(spec.WorkSeconds / 2)
		return runHeterogeneous(o, pols[i/len(orders)%len(pols)].make(), spec, orders[i%len(orders)])
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig8",
		Title:  "TLB-sensitive app alongside lightly-loaded Redis, both launch orders",
		Header: []string{"workload", "policy", "speedup(before)", "speedup(after)", "redis-huge(before)", "app-huge(before)"},
	}
	for si, name := range sensitives {
		var baselines [2]sim.Time
		for pi, pc := range pols {
			var speed [2]string
			for oi := range orders {
				r := runs[(si*len(pols)+pi)*len(orders)+oi]
				if pc.name == "linux-4k" {
					baselines[oi] = r.runtime
				}
				speed[oi] = speedup(baselines[oi], r.runtime)
			}
			before := runs[(si*len(pols)+pi)*len(orders)]
			t.Add(name, pc.name, speed[0], speed[1], before.redisHuge, before.appHuge)
		}
	}
	t.Note("paper: HawkEye gains 15–60%% over base pages regardless of order; Linux depends on order; Ingens promotes mostly Redis.")
	return t, nil
}

// heteroRun is the outcome of one (sensitive app, redis-light) pair: the
// app's runtime and both processes' huge mappings when the run ended.
type heteroRun struct {
	runtime            sim.Time
	redisHuge, appHuge mem.Regions
}

// runHeterogeneous runs one (sensitive app, redis-light) pair.
func runHeterogeneous(o Options, pol kernel.Policy, spec workload.Spec, appFirst bool) (heteroRun, error) {
	k := newKernelFragmented(o, pol, fragKeep, kernel.DefaultPinnedChunkFrac)
	redisSpec := workload.Lookup("redis-light")
	redisInst := workload.New(redisSpec, o.Scale)
	appInst := workload.New(spec, o.Scale)

	var app, redis *kernel.Proc
	const stagger = 5 * sim.Second
	if appFirst {
		app = k.Spawn(spec.Name, appInst.Program)
		redis = k.SpawnAt(stagger, "redis", redisInst.Program)
	} else {
		redis = k.Spawn("redis", redisInst.Program)
		app = k.SpawnAt(stagger, spec.Name, appInst.Program)
	}
	// Redis serves forever; stop once the sensitive app finishes.
	k.Engine.Every(sim.Second, "app-done", func(e *sim.Engine) (bool, error) {
		if app.Done {
			e.Stop()
			return false, nil
		}
		return true, nil
	})
	if err := k.Run(4 * sim.Time(spec.WorkSeconds*float64(sim.Second))); err != nil {
		return heteroRun{}, err
	}
	if !app.Done {
		return heteroRun{}, fmt.Errorf("fig8: %s did not finish under %s", spec.Name, pol.Name())
	}
	return heteroRun{app.Runtime(k.Now()), redis.VP.HugeMapped(), app.VP.HugeMapped()}, nil
}
