package kernel

// Batched trace execution. The scalar path simulates one memory access at a
// time: Sample → Touch (region-map lookup + settle loop) → Lookup (second
// map lookup) → TLB.Access. Almost every sampled access is a repeat of the
// previous page (Sequential dwells) or part of a dense stream, so the
// batched path lets samplers emit run-length-encoded AccessRun records and
// executes each run with the region resolved once, the per-access repeat
// effects applied in closed form, and the TLB charged through tlb.AccessRun.
//
// The contract, proven by the golden equivalence test in internal/runner, is
// bit-identity with the scalar path: identical RNG streams (SampleRun draws
// exactly as Sample would; write repeats replay the content-store write that
// consumes the store RNG), identical TLB state and counters (repeats to a
// just-touched page are guaranteed L1 hits, applied via a closed-form tick
// bump), and identical float accumulation (L1 hits contribute no walk
// cycles, so the non-zero additions happen in the same order).

import (
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/tlb"
	"hawkeye/internal/vmm"
)

// AccessRun is a run-length-encoded span of a workload's access trace:
// Count accesses starting at Start, advancing Stride pages per access, all
// reads or all writes. Stride 0 is a dwell (repeats to one page) — the form
// samplers emit for every merged run.
type AccessRun struct {
	Start  vmm.VPN
	Stride mem.Pages
	Count  int
	Write  bool
}

// RunSampler is an AccessSampler that can emit its stream run-length
// encoded. SampleRun must consume the RNG exactly as n Sample calls would,
// so the scalar and batched paths stay interchangeable mid-stream.
type RunSampler interface {
	AccessSampler
	SampleRun(r *sim.Rand, buf []AccessRun, n int) []AccessRun
}

// TouchRunResult reports one executed run.
type TouchRunResult struct {
	// FaultCost is the summed fault latency the run's accesses incurred.
	FaultCost sim.Time
	// Walk is the summed page-walk cycle cost of the run's translations
	// (zero when TouchRun ran without a profile).
	Walk sim.Cycles
}

// touchCached is the settle loop of touch over the translation-cache access
// path: same attempts, same fault routing, same costs — only the region-map
// lookup is amortized.
func (k *Kernel) touchCached(p *Proc, vpn vmm.VPN, write bool) (sim.Time, error) {
	var cost sim.Time
	for attempt := 0; attempt < 3; attempt++ {
		switch k.VMM.AccessCached(p.VP, vpn, write) {
		case vmm.TouchOK:
			return cost, nil
		case vmm.TouchFault:
			c, err := k.handleFault(p, vpn)
			if err != nil {
				return cost, err
			}
			cost += c
		case vmm.TouchCOW:
			c, err := k.handleCOW(p, vpn)
			if err != nil {
				return cost, err
			}
			cost += c
		}
	}
	panic("kernel: batched touch did not settle")
}

// walkCost converts a translation outcome into page-walk cycles, exactly as
// the scalar SteadyRun loop does.
func (k *Kernel) walkCost(p *Proc, prof *AccessProfile, out tlb.Outcome, huge bool) sim.Cycles {
	switch out {
	case tlb.HitL2:
		return sim.Cycles(k.Cfg.TLB.L2HitCycles)
	case tlb.Miss:
		w := k.TLB.WalkCycles(prof.Locality, huge, p.Nested)
		if p.Nested && p.NestedDiscount > 0 {
			w = w.Scale(p.NestedDiscount)
		}
		return w
	}
	return 0
}

// TouchRun executes one access run: the region map is consulted once (via
// the process translation cache), the first access settles the mapping
// through the full fault path, and the Count-1 repeats apply their residual
// MMU effects in closed form. When prof is non-nil the run is also driven
// through the TLB (tlb.AccessRun) and the walk-cycle cost is returned.
func (k *Kernel) TouchRun(p *Proc, run AccessRun, prof *AccessProfile) (TouchRunResult, error) {
	var res TouchRunResult
	if run.Count <= 0 {
		return res, nil
	}
	if run.Stride != 0 && run.Count > 1 {
		// Strided runs execute access by access (region resolution still
		// amortizes through the cache). No sampler emits these today; the
		// closed forms below only cover dwells.
		for j := 0; j < run.Count; j++ {
			one := AccessRun{Start: run.Start.Advance(run.Stride * mem.Pages(j)), Count: 1, Write: run.Write}
			r, err := k.TouchRun(p, one, prof)
			if err != nil {
				return res, err
			}
			res.FaultCost += r.FaultCost
			res.Walk += r.Walk
		}
		return res, nil
	}

	// Dwell (or single access): settle once, repeat in closed form. The
	// first probe runs on the already-resolved region — the common case is
	// a settled mapping, where this is the whole access — and falls back to
	// the settle loop on fault/COW. The failed probe has no side effects,
	// so the fallback replays it and the paths stay bit-identical.
	r, _ := p.VP.ResolvePTE(run.Start)
	if r == nil || k.VMM.AccessResolved(r, vmm.SlotOf(run.Start), run.Write) != vmm.TouchOK {
		c, err := k.touchCached(p, run.Start, run.Write)
		if err != nil {
			return res, err
		}
		res.FaultCost = c
		r, _ = p.VP.ResolvePTE(run.Start)
	}
	if run.Count > 1 {
		// Repeats cannot fault: the mapping just settled and nothing runs
		// between the accesses of a run (the quantum is atomic in simulated
		// time), and a run is uniformly reads or writes, so a COW break in
		// the first access covers the rest.
		k.VMM.AccessRepeat(r, vmm.SlotOf(run.Start), run.Write, run.Count-1)
	}
	if prof != nil {
		huge := r.Huge
		page := int64(run.Start)
		if huge {
			page = int64(vmm.RegionOf(run.Start))
		}
		first, _ := k.TLB.AccessRun(int32(p.VP.PID), page, huge, int64(run.Count))
		res.Walk = k.walkCost(p, prof, first, huge)
	}
	return res, nil
}

// TouchRange touches pages [start, start+pages) in ascending order, charging
// perPage of application work on top of each access, and stops as soon as
// consumed reaches budget — the batched form of the Populate phase loop,
// with the same per-page stop condition so phase boundaries land on the same
// simulated instants as the scalar loop.
func (k *Kernel) TouchRange(p *Proc, start vmm.VPN, pages mem.Pages, write bool, perPage, budget sim.Time) (done mem.Pages, consumed sim.Time, err error) {
	for done < pages && consumed < budget {
		c, terr := k.touchCached(p, start.Advance(done), write)
		if terr != nil {
			return done, consumed, terr
		}
		consumed += c + perPage
		done++
	}
	return done, consumed, nil
}

// steadyRunBatched is SteadyRun over a run-length-encoded trace. The whole
// quantum's trace is drawn up front — kernel work never consumes the
// process RNG, so pre-drawing leaves the stream exactly where interleaved
// Sample calls would — then each run executes through TouchRun.
func (k *Kernel) steadyRunBatched(p *Proc, dur sim.Time, s RunSampler) (SteadyResult, error) {
	var res SteadyResult
	if dur <= 0 {
		return res, nil
	}
	samples := k.Cfg.SamplesPerQuantum
	if samples < 64 {
		samples = 64
	}
	prof := s.Profile()
	var walkTotal sim.Cycles
	var faultCost sim.Time
	if p.runBuf == nil {
		p.runBuf = getRunBuf()
	}
	p.runBuf = s.SampleRun(p.rng, p.runBuf[:0], samples)
	for i := range p.runBuf {
		r, err := k.TouchRun(p, p.runBuf[i], &prof)
		if err != nil {
			return res, err
		}
		faultCost += r.FaultCost
		walkTotal += r.Walk
	}
	avgWalk := float64(walkTotal) / float64(samples)
	overhead := avgWalk / (prof.CyclesPerAccess + avgWalk)

	totalCycles := sim.CyclesIn(dur, CyclesPerMicro)
	p.PMU.Add(totalCycles.Scale(overhead), totalCycles)

	slow := k.SlowdownFactor
	if slow < 1 {
		slow = 1
	}
	work := dur.Seconds() * (1 - overhead) / slow
	p.WorkDone += work

	res.Consumed = dur + faultCost
	res.WorkSeconds = work
	res.MMUOverhead = overhead
	return res, nil
}
