// Package ksm implements kernel same-page merging: a rate-limited scanner
// that hashes anonymous base pages, merges byte-identical ones into a
// single copy-on-write frame, and folds zero-filled pages onto the
// canonical zero page. The HawkEye paper leans on this machinery twice:
// the bloat-recovery thread is "a faster special case for zero pages"
// (§3.2), and host-side KSM turns guest pre-zeroing into cross-VM memory
// sharing (Fig. 11).
package ksm

import (
	"hawkeye/internal/content"
	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/trace"
	"hawkeye/internal/vmm"
)

// Config tunes the scanner.
type Config struct {
	// PagesPerPulse bounds work per wakeup; Period is the wakeup interval.
	PagesPerPulse int
	Period        sim.Time
	// MergeHuge enables SmartMD/Ingens-style coordination between huge
	// pages and same-page merging: cold huge regions whose sampled
	// repetition rate exceeds RepetitionThreshold are demoted so the base
	// scanner can merge their duplicate pages. Off by default, as in
	// mainline Linux (where khugepaged and ksmd famously fight, §3.2).
	MergeHuge bool
	// RepetitionThreshold is the sampled fraction of duplicate/zero pages
	// above which a cold huge region is worth demoting (default 0.5).
	RepetitionThreshold float64
}

// DefaultConfig mirrors ksmd defaults (100 pages per 20 ms ≈ 5k pages/s).
func DefaultConfig() Config {
	return Config{PagesPerPulse: 100, Period: 20 * sim.Millisecond}
}

// KSM is the same-page merging engine for one kernel.
type KSM struct {
	Cfg Config

	k     *kernel.Kernel
	table map[uint64]mem.FrameID // stable table: content hash → canonical frame

	// Scan cursor.
	procCursor   int
	regionCursor int
	slotCursor   int

	// Stats.
	MergedPages int64 // pages merged into a canonical frame
	ZeroMerged  int64 // pages merged onto the zero page
	DemotedHuge int64 // huge regions demoted for merging (MergeHuge)
	Scanned     int64

	// Tracing (nil when disabled; wired by Attach from the kernel).
	tr            *trace.Recorder
	ctrMerged     *trace.Counter
	ctrZeroMerged *trace.Counter
	ctrDemoted    *trace.Counter
}

// New creates a KSM engine; call Attach to start its daemon.
func New(cfg Config) *KSM {
	if cfg.PagesPerPulse <= 0 {
		cfg.PagesPerPulse = 100
	}
	if cfg.Period <= 0 {
		cfg.Period = 20 * sim.Millisecond
	}
	if cfg.RepetitionThreshold <= 0 {
		cfg.RepetitionThreshold = 0.5
	}
	return &KSM{Cfg: cfg, table: make(map[uint64]mem.FrameID)}
}

// Attach starts the scanning daemon on the kernel.
func (s *KSM) Attach(k *kernel.Kernel) {
	s.k = k
	s.tr = k.Trace
	s.ctrMerged = k.Trace.Counter("ksm_pages_merged")
	s.ctrZeroMerged = k.Trace.Counter("ksm_zero_pages_merged")
	s.ctrDemoted = k.Trace.Counter("ksm_huge_demoted")
	k.Engine.Every(s.Cfg.Period, "ksmd", func(*sim.Engine) (bool, error) {
		s.Pulse(s.Cfg.PagesPerPulse)
		return true, nil
	})
}

// Pulse scans up to n pages from the cursor, merging as it goes. Exposed
// for tests and for synchronous use by the virtualization layer.
func (s *KSM) Pulse(n int) {
	if s.k == nil {
		return
	}
	procs := s.k.VMM.Processes()
	if len(procs) == 0 {
		return
	}
	if s.procCursor >= len(procs) {
		s.procCursor = 0
	}
	for scanned := 0; scanned < n; {
		if s.procCursor >= len(procs) {
			s.procCursor = 0
			return // completed a full cycle this pulse
		}
		p := procs[s.procCursor]
		regions := p.RegionsInOrder()
		if s.regionCursor >= len(regions) {
			s.procCursor++
			s.regionCursor = 0
			s.slotCursor = 0
			continue
		}
		r := regions[s.regionCursor]
		if r.Huge {
			if s.Cfg.MergeHuge && s.slotCursor == 0 {
				scanned += s.considerHuge(p, r)
			}
			s.regionCursor++
			s.slotCursor = 0
			continue
		}
		if s.slotCursor >= mem.HugePages {
			s.regionCursor++
			s.slotCursor = 0
			continue
		}
		scanned += s.scanSlot(p, r, s.slotCursor)
		s.slotCursor++
	}
}

// scanSlot examines one PTE; returns 1 if a page was actually scanned.
func (s *KSM) scanSlot(p *vmm.Process, r *vmm.Region, slot int) int {
	pte := r.PTEs[slot]
	if !pte.Present() || pte.COW() {
		return 0
	}
	s.Scanned++
	frame := pte.Frame
	sig := s.k.Content.Get(frame)
	if sig.Zero() {
		// Zero pages fold directly onto the canonical zero page.
		s.k.VMM.UnmapBase(p, r, slot, true)
		s.k.VMM.MapShared(p, r, slot, s.k.VMM.ZeroFrame)
		s.ZeroMerged++
		s.MergedPages++
		s.ctrMerged.Inc()
		s.ctrZeroMerged.Inc()
		s.tr.DedupMerge(trace.OriginKsmd, int32(p.PID), int64(r.Index), 1)
		return 1
	}
	canon, ok := s.table[sig.Hash]
	if !ok || !s.canonValid(canon, sig.Hash) {
		s.table[sig.Hash] = frame
		return 1
	}
	if canon == frame {
		return 1
	}
	// First merge onto this canonical frame: its owner's private mapping
	// becomes a shared COW mapping of the same frame.
	if s.k.VMM.SharedRefs(canon) == 0 {
		if !s.k.VMM.ConvertToShared(canon) {
			// Owner vanished between validation and merge; restart chain.
			s.table[sig.Hash] = frame
			return 1
		}
	}
	// Merge: drop the private copy, share the canonical frame.
	s.k.VMM.UnmapBase(p, r, slot, false)
	s.k.VMM.MapShared(p, r, slot, canon)
	s.k.Alloc.Free(frame, 0, true)
	s.MergedPages++
	s.ctrMerged.Inc()
	s.tr.DedupMerge(trace.OriginKsmd, int32(p.PID), int64(r.Index), 1)
	return 1
}

// considerHuge samples a huge region's repetition rate (zero or
// already-known content) and demotes it when it is cold and repetitive
// enough to be worth merging — the SmartMD policy. Returns pages scanned.
func (s *KSM) considerHuge(p *vmm.Process, r *vmm.Region) int {
	if r.HugeAccessed() {
		// Hot huge pages keep their TLB benefit; never trade them away.
		r.ClearAccessBits()
		return 0
	}
	const samples = 32
	repeated := 0
	seen := make(map[uint64]bool, samples)
	for i := 0; i < samples; i++ {
		frame := r.HugeFrame + mem.FrameID(i*(mem.HugePages/samples))
		sig := s.k.Content.Get(frame)
		switch {
		case sig.Zero():
			repeated++
		case seen[sig.Hash]:
			repeated++
		default:
			if canon, ok := s.table[sig.Hash]; ok && canon != frame && s.canonValid(canon, sig.Hash) {
				repeated++
			} else if !ok {
				// Seed the stable table so repetition across processes (the
				// cross-VM duplicate case) becomes visible to later scans.
				s.table[sig.Hash] = frame
			}
			seen[sig.Hash] = true
		}
	}
	if float64(repeated)/samples < s.Cfg.RepetitionThreshold {
		return samples
	}
	s.k.VMM.Demote(p, r)
	s.k.TLB.InvalidateRegion(int32(p.PID), int64(r.Index))
	s.DemotedHuge++
	s.ctrDemoted.Inc()
	s.tr.Demote(trace.OriginKsmd, int32(p.PID), int64(r.Index), 0)
	return samples
}

// canonValid checks that a table entry still names a live anonymous frame
// with the expected content (the owner may have freed or rewritten it).
func (s *KSM) canonValid(f mem.FrameID, hash uint64) bool {
	if s.k.Alloc.FrameTag(f) != mem.TagAnon {
		return false
	}
	return s.k.Content.Get(f).Hash == hash
}

var _ = content.ZeroHash // content is part of the package contract
