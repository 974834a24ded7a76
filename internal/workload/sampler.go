// Package workload provides the simulated applications of the paper's
// evaluation: a Redis-like key-value store, Graph500- and XSBench-like
// hot-spot workloads, NPB-like kernels, the page-fault microbenchmark of
// Table 1, SparseHash, HACC-IO, VM/JVM spin-up, and synthetic random and
// sequential scanners. Each workload is a kernel.Program built from
// population, steady-state, and deletion phases, plus an AccessSampler
// describing its address stream to the TLB model.
package workload

import (
	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/vmm"
)

// Pattern is the shape of a steady-state address stream.
type Pattern int

// Address-stream shapes.
const (
	// Uniform picks pages uniformly at random over the whole footprint.
	Uniform Pattern = iota
	// Sequential advances page by page; AccessesPerPage controls how many
	// TLB-relevant accesses land on each page before moving on.
	Sequential
	// Hotspot concentrates HotProb of accesses in the top HotFrac of the
	// VA range (the Graph500/XSBench shape: hot data at high addresses).
	Hotspot
)

// Sampler generates the address stream of one workload phase.
type Sampler struct {
	Base  vmm.VPN   // first VPN of the range
	Pages mem.Pages // range length in pages

	Kind            Pattern
	HotFrac         float64 // Hotspot: fraction of range (at the top) that is hot
	HotProb         float64 // Hotspot: probability an access hits the hot set
	AccessesPerPage int     // Sequential: accesses per page before advancing
	WriteFrac       float64 // fraction of accesses that are writes

	Prof kernel.AccessProfile

	seqPos int64
	seqCnt int

	// Per-phase sampling constants (see prepare): the hot-set size and the
	// precomputed reciprocals of the bounded draws. Geometry is fixed for a
	// whole phase, so Sample's per-access hardware divides and the hotspot
	// float multiply collapse into a one-time setup.
	prepPages mem.Pages
	prepHot   float64
	hotPages  mem.Pages
	pagesDiv  sim.Divisor
	hotDiv    sim.Divisor
	coldDiv   sim.Divisor
}

// prepare derives the sampling constants for the current geometry. Sample
// re-checks (Pages, HotFrac) on every call, so a sampler whose range is
// re-pointed between phases re-prepares transparently.
func (s *Sampler) prepare() {
	s.prepPages, s.prepHot = s.Pages, s.HotFrac
	s.pagesDiv = sim.NewDivisor(uint64(s.Pages))
	hotPages := mem.Pages(float64(s.Pages) * s.HotFrac)
	if hotPages < 1 {
		hotPages = 1
	}
	s.hotPages = hotPages
	s.hotDiv = sim.NewDivisor(uint64(hotPages))
	cold := s.Pages - hotPages
	if cold < 1 {
		cold = s.Pages
	}
	s.coldDiv = sim.NewDivisor(uint64(cold))
}

var _ kernel.AccessSampler = (*Sampler)(nil)

// Sample draws one access of the stream.
func (s *Sampler) Sample(r *sim.Rand) (vmm.VPN, bool) {
	if s.Pages <= 0 {
		return s.Base, false
	}
	if s.prepPages != s.Pages || s.prepHot != s.HotFrac {
		s.prepare()
	}
	write := s.WriteFrac > 0 && r.Float64() < s.WriteFrac
	switch s.Kind {
	case Sequential:
		// A streaming scan: each page receives AccessesPerPage consecutive
		// accesses (so TLB miss rate ≈ 1/APP with cheap, prefetched walks),
		// and the stream covers the whole buffer far faster than the
		// simulator's sampling rate. Sampling the stream therefore means
		// drawing a random position and dwelling on it for APP samples —
		// the per-sample statistics and the access-bit coverage both match
		// the real scan.
		app := s.AccessesPerPage
		if app <= 0 {
			app = 8
		}
		s.seqCnt++
		if s.seqCnt >= app || s.seqPos == 0 {
			s.seqCnt = 0
			s.seqPos = 1 + r.Int63nDiv(&s.pagesDiv)
		}
		return s.Base.Advance(mem.Pages(s.seqPos - 1)), write
	case Hotspot:
		if r.Float64() < s.HotProb {
			// Hot set lives at the top of the range.
			return s.Base.Advance(s.Pages - s.hotPages + mem.Pages(r.Int63nDiv(&s.hotDiv))), write
		}
		return s.Base.Advance(mem.Pages(r.Int63nDiv(&s.coldDiv))), write
	default: // Uniform
		return s.Base.Advance(mem.Pages(r.Int63nDiv(&s.pagesDiv))), write
	}
}

// SampleRun implements kernel.AccessSampler: it draws n samples and emits
// them run-length encoded. Sequential streams dwell AccessesPerPage samples
// per page, so they collapse ~APP× here; Uniform and Hotspot merge only on
// chance repeats.
func (s *Sampler) SampleRun(r *sim.Rand, buf []kernel.AccessRun, n int) []kernel.AccessRun {
	for i := 0; i < n; i++ {
		vpn, write := s.Sample(r)
		buf = kernel.AppendAccess(buf, vpn, write)
	}
	return buf
}

// Profile implements kernel.AccessSampler.
func (s *Sampler) Profile() kernel.AccessProfile { return s.Prof }

// HotRegions returns the region span of the hot set (for experiment
// introspection): regions [lo, hi) of the process hold the hot pages.
func (s *Sampler) HotRegions() (lo, hi vmm.RegionIndex) {
	hotPages := mem.Pages(float64(s.Pages) * s.HotFrac)
	if s.Kind != Hotspot || hotPages <= 0 {
		return vmm.RegionOf(s.Base), vmm.RegionOf(s.Base.Advance(s.Pages-1)) + 1
	}
	lo = vmm.RegionOf(s.Base.Advance(s.Pages - hotPages))
	hi = vmm.RegionOf(s.Base.Advance(s.Pages-1)) + 1
	return
}
