package kernel

import (
	"hawkeye/internal/sim"
	"hawkeye/internal/tlb"
	"hawkeye/internal/vmm"
)

// AccessProfile characterizes a workload phase's interaction with the
// translation hardware.
type AccessProfile struct {
	// Locality drives the page-walk cost model: 0 = sequential/strided
	// (walks absorbed by paging-structure caches), 1 = uniform random over
	// a large footprint (walks go to DRAM).
	Locality tlb.Locality
	// CyclesPerAccess is the average non-translation work between two
	// TLB-relevant memory accesses; it converts walk cycles into an
	// overhead fraction, and differs per workload (compute-heavy kernels
	// have large values, pointer chasers small ones).
	CyclesPerAccess float64
}

// AccessRun is a run-length-encoded span of a workload's access trace:
// Count back-to-back accesses to the page Start, all reads or all writes.
type AccessRun struct {
	Start vmm.VPN
	Count int
	Write bool
}

// AccessSampler produces a representative stream of virtual page accesses
// for a workload's current phase.
type AccessSampler interface {
	// SampleRun draws n accesses from r and appends them to buf run-length
	// encoded (see AppendAccess).
	SampleRun(r *sim.Rand, buf []AccessRun, n int) []AccessRun
	Profile() AccessProfile
}

// AppendAccess appends one access to buf, merging it into the last run when
// it repeats that run's page and mode — the encoding every SampleRun emits.
func AppendAccess(buf []AccessRun, vpn vmm.VPN, write bool) []AccessRun {
	if m := len(buf); m > 0 {
		if last := &buf[m-1]; last.Start == vpn && last.Write == write {
			last.Count++
			return buf
		}
	}
	return append(buf, AccessRun{Start: vpn, Count: 1, Write: write})
}

// SteadyResult reports one SteadyRun quantum.
type SteadyResult struct {
	Consumed    sim.Time // simulated time used (dur + fault stalls)
	WorkSeconds float64  // useful work completed, in seconds
	MMUOverhead float64  // fraction of cycles spent in page walks
}

// SteadyRun executes dur of steady-state workload time: it samples the
// address stream through the TLB model, computes the MMU overhead exactly
// as the PMU methodology of Table 4 does (walk cycles / total cycles),
// charges the process PMU, and converts the remainder into useful work.
// Faults encountered by sampled accesses (lazy population, COW refaults
// after dedup) are resolved and charged.
//
// The quantum's accesses are drawn up front and then executed one by one.
// Kernel work never consumes the process RNG, so drawing first leaves the
// stream exactly where drawing between accesses would.
func (k *Kernel) SteadyRun(p *Proc, dur sim.Time, s AccessSampler) (SteadyResult, error) {
	var res SteadyResult
	if dur <= 0 {
		return res, nil
	}
	samples := max(k.Cfg.SamplesPerQuantum, 64)
	prof := s.Profile()
	pid := int32(p.VP.PID)
	var walkTotal sim.Cycles
	var faultCost sim.Time
	if p.runBuf == nil {
		p.runBuf = getRunBuf()
	}
	p.runBuf = s.SampleRun(p.rng, p.runBuf[:0], samples)
	for _, run := range p.runBuf {
		for range run.Count {
			c, err := k.touch(p, run.Start, run.Write, 0, false)
			if err != nil {
				return res, err
			}
			faultCost += c
			_, huge, present := p.VP.Lookup(run.Start)
			if !present {
				continue
			}
			page := int64(run.Start)
			if huge {
				page = int64(vmm.RegionOf(run.Start))
			}
			switch k.TLB.Access(pid, page, huge) {
			case tlb.HitL1:
			case tlb.HitL2:
				walkTotal += sim.Cycles(k.Cfg.TLB.L2HitCycles)
			case tlb.Miss:
				w := k.TLB.WalkCycles(prof.Locality, huge, p.Nested)
				if p.Nested && p.NestedDiscount > 0 {
					w = w.Scale(p.NestedDiscount)
				}
				walkTotal += w
			}
		}
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
