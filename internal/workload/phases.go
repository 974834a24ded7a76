package workload

import (
	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/vmm"
)

// Phase is one stage of a phased workload program.
type Phase interface {
	// run executes a slice of the phase bounded by budget; it returns the
	// time consumed and whether the phase completed.
	run(k *kernel.Kernel, p *kernel.Proc, budget sim.Time) (sim.Time, bool, error)
}

// Phased is a kernel.Program that executes phases in order.
type Phased struct {
	Phases []Phase
	// Repeat > 1 loops the whole phase list (Table 1 runs its buffer cycle
	// ten times).
	Repeat int

	idx  int
	iter int
}

var _ kernel.Program = (*Phased)(nil)

// Step implements kernel.Program.
func (ph *Phased) Step(k *kernel.Kernel, p *kernel.Proc) (sim.Time, bool, error) {
	if ph.Repeat < 1 {
		ph.Repeat = 1
	}
	budget := k.Cfg.Quantum
	var consumed sim.Time
	for consumed < budget {
		if ph.idx >= len(ph.Phases) {
			ph.iter++
			if ph.iter >= ph.Repeat {
				return consumed, true, nil
			}
			ph.idx = 0
			ph.reset()
		}
		c, done, err := ph.Phases[ph.idx].run(k, p, budget-consumed)
		consumed += c
		if err != nil {
			return consumed, false, err
		}
		if !done {
			return consumed, false, nil
		}
		ph.idx++
	}
	return consumed, false, nil
}

// reset re-arms phases that keep progress state for the next repeat.
func (ph *Phased) reset() {
	for _, phase := range ph.Phases {
		if r, ok := phase.(interface{ reset() }); ok {
			r.reset()
		}
	}
}

// Populate touches [Start, Start+Pages) once, in order, writing one byte
// per page (first-touch allocation). OpCost is the per-page application
// work besides the fault itself.
type Populate struct {
	Start  vmm.VPN
	Pages  mem.Pages
	OpCost sim.Time
	Write  bool

	next mem.Pages
}

func (pp *Populate) reset() { pp.next = 0 }

func (pp *Populate) run(k *kernel.Kernel, p *kernel.Proc, budget sim.Time) (sim.Time, bool, error) {
	var consumed sim.Time
	for pp.next < pp.Pages && consumed < budget {
		c, err := k.Touch(p, pp.Start.Advance(pp.next), pp.Write)
		if err != nil {
			return consumed, false, err
		}
		consumed += c + pp.OpCost
		pp.next++
	}
	return consumed, pp.next >= pp.Pages, nil
}

// Steady runs the sampler-driven steady state until Work seconds of useful
// work accumulate (relative to the phase start).
type Steady struct {
	Work    float64
	Sampler *Sampler
	// Source, when non-nil, drives the steady state instead of Sampler — the
	// hook trace replay uses to substitute a ReplaySampler over the same
	// stream. Sampler stays set alongside it: it documents the stream's
	// geometry and anchors AttachReplay's shape check.
	Source kernel.AccessSampler

	startWork  float64
	started    bool
	seriesName string
}

func (st *Steady) reset() { st.started = false }

func (st *Steady) run(k *kernel.Kernel, p *kernel.Proc, budget sim.Time) (sim.Time, bool, error) {
	if !st.started {
		st.started = true
		st.startWork = p.WorkDone
	}
	src := kernel.AccessSampler(st.Sampler)
	if st.Source != nil {
		src = st.Source
	}
	res, err := k.SteadyRun(p, budget, src)
	if err != nil {
		return res.Consumed, false, err
	}
	if st.seriesName == "" {
		st.seriesName = "mmu/" + p.Name()
	}
	k.Rec.Record(st.seriesName, res.MMUOverhead)
	return res.Consumed, p.WorkDone-st.startWork >= st.Work, nil
}

// Free releases [Start, Start+Pages) via madvise(DONTNEED).
type Free struct {
	Start vmm.VPN
	Pages mem.Pages

	done bool
}

func (fr *Free) reset() { fr.done = false }

func (fr *Free) run(k *kernel.Kernel, p *kernel.Proc, budget sim.Time) (sim.Time, bool, error) {
	if fr.done {
		return 0, true, nil
	}
	cost := k.Madvise(p, fr.Start, fr.Pages)
	fr.done = true
	return cost, true, nil
}

// Sleep idles for a duration (the "after some time gap" of Fig. 1).
type Sleep struct {
	For sim.Time

	left sim.Time
	init bool
}

func (sl *Sleep) reset() { sl.init = false }

func (sl *Sleep) run(k *kernel.Kernel, p *kernel.Proc, budget sim.Time) (sim.Time, bool, error) {
	if !sl.init {
		sl.init = true
		sl.left = sl.For
	}
	if sl.left <= budget {
		c := sl.left
		sl.left = 0
		return c, true, nil
	}
	sl.left -= budget
	return budget, false, nil
}
