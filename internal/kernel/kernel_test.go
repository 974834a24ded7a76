package kernel

import (
	"testing"

	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/vmm"
)

// testPolicy always answers with a fixed decision and runs no daemons.
type testPolicy struct{ decision Decision }

func (tp *testPolicy) Name() string     { return "test" }
func (tp *testPolicy) Attach(k *Kernel) {}
func (tp *testPolicy) OnFault(k *Kernel, p *Proc, r *vmm.Region, vpn vmm.VPN) Decision {
	return tp.decision
}

func newTestKernel(t testing.TB, mb mem.Bytes, d Decision) *Kernel {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MemoryBytes = mb << 20
	return New(cfg, &testPolicy{decision: d})
}

// touchRange programs a run of first-touch writes.
type touchRange struct {
	start, end vmm.VPN
	next       vmm.VPN
	batch      int
}

func (tr *touchRange) Step(k *Kernel, p *Proc) (sim.Time, bool, error) {
	if tr.next == 0 {
		tr.next = tr.start
	}
	if tr.batch == 0 {
		tr.batch = 256
	}
	var consumed sim.Time
	for i := 0; i < tr.batch && tr.next < tr.end; i++ {
		c, err := k.Touch(p, tr.next, true)
		if err != nil {
			return consumed, false, err
		}
		consumed += c + 1
		tr.next++
	}
	return consumed, tr.next >= tr.end, nil
}

func TestBaseFaultPath(t *testing.T) {
	k := newTestKernel(t, 64, DecideBase)
	p := k.Spawn("toucher", &touchRange{start: 0, end: 1000})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.Done {
		t.Fatal("program did not finish")
	}
	if p.VP.RSS() != 1000 {
		t.Fatalf("RSS = %d, want 1000", p.VP.RSS())
	}
	if p.Acct.BaseFaults != 1000 {
		t.Fatalf("base faults = %d, want 1000", p.Acct.BaseFaults)
	}
	if p.VP.HugeMapped() != 0 {
		t.Fatal("base policy mapped huge pages")
	}
}

func TestHugeFaultPath(t *testing.T) {
	k := newTestKernel(t, 64, DecideHuge)
	p := k.Spawn("toucher", &touchRange{start: 0, end: 1024})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// 1024 pages = 2 regions: only 2 huge faults.
	if p.Acct.HugeFaults != 2 {
		t.Fatalf("huge faults = %d, want 2", p.Acct.HugeFaults)
	}
	if p.Acct.BaseFaults != 0 {
		t.Fatalf("base faults = %d, want 0", p.Acct.BaseFaults)
	}
	if p.VP.RSS() != 2*mem.HugePages {
		t.Fatalf("RSS = %d", p.VP.RSS())
	}
}

func TestReservationFaultPath(t *testing.T) {
	k := newTestKernel(t, 64, DecideReserve)
	p := k.Spawn("toucher", &touchRange{start: 0, end: 600})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// All 600 faults are base faults, but region 0 is fully populated from
	// its reservation and region 1 partially.
	if p.Acct.BaseFaults != 600 {
		t.Fatalf("base faults = %d, want 600", p.Acct.BaseFaults)
	}
	r0 := p.VP.Region(0)
	if r0 == nil || !r0.Reserved && !r0.Huge {
		// Region 0 may have been promoted in place only by a policy daemon;
		// with the test policy it stays reserved.
		t.Fatalf("region 0 not reservation-backed: %+v", r0)
	}
	if r0.Populated() != mem.HugePages {
		t.Fatalf("region 0 populated = %d", r0.Populated())
	}
	// Reserved frames are contiguous: PTE 5 maps head+5.
	pte, _, _ := p.VP.Lookup(5)
	if pte.Frame != r0.ReservedBlock.Head+5 {
		t.Fatal("reservation slots not in place")
	}
}

func TestHugeFallsBackWithoutContiguity(t *testing.T) {
	k := newTestKernel(t, 64, DecideHuge)
	k.FragmentMemory(0.1)
	if k.Alloc.HugePageCapacity() != 0 {
		t.Skip("fragmentation did not eliminate contiguity")
	}
	p := k.Spawn("toucher", &touchRange{start: 0, end: 100})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.Acct.HugeFaults != 0 || p.Acct.BaseFaults != 100 {
		t.Fatalf("faults base=%d huge=%d, want 100/0", p.Acct.BaseFaults, p.Acct.HugeFaults)
	}
}

func TestOOMKillsProcess(t *testing.T) {
	k := newTestKernel(t, 16, DecideBase) // 16 MB = 4096 pages
	p := k.Spawn("pig", &touchRange{start: 0, end: 10000})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !p.OOMKilled {
		t.Fatal("process not OOM-killed")
	}
	if k.OOMs != 1 {
		t.Fatalf("OOMs = %d", k.OOMs)
	}
	if !p.VP.Dead {
		t.Fatal("address space not torn down")
	}
}

func TestFaultLatencyAccounting(t *testing.T) {
	k := newTestKernel(t, 64, DecideBase)
	p := k.Spawn("toucher", &touchRange{start: 0, end: 1000})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// Fresh machine: memory is pre-zeroed, so faults cost ≈ 2.65 µs.
	avg := p.Acct.AvgFaultTime()
	if avg < 2 || avg > 3 {
		t.Fatalf("avg fault = %v µs, want ≈ 2.65 (pre-zeroed)", int64(avg))
	}
	// Runtime must cover at least the fault time.
	if p.Runtime(k.Now()) < p.Acct.FaultTime() {
		t.Fatalf("runtime %v < fault time %v", p.Runtime(k.Now()), p.Acct.FaultTime())
	}
}

// steadySampler samples uniformly over a fixed number of pages.
type steadySampler struct {
	pages   int64
	profile AccessProfile
}

func (s *steadySampler) SampleRun(r *sim.Rand, buf []AccessRun, n int) []AccessRun {
	for i := 0; i < n; i++ {
		buf = AppendAccess(buf, vmm.VPN(r.Int63n(s.pages)), false)
	}
	return buf
}
func (s *steadySampler) Profile() AccessProfile { return s.profile }

// steadyProgram touches its range then runs steady-state for workSeconds.
type steadyProgram struct {
	pages   int64
	work    float64
	sampler *steadySampler
	touched vmm.VPN
}

func (sp *steadyProgram) Step(k *Kernel, p *Proc) (sim.Time, bool, error) {
	var consumed sim.Time
	for sp.touched < vmm.VPN(sp.pages) {
		c, err := k.Touch(p, sp.touched, true)
		if err != nil {
			return consumed, false, err
		}
		consumed += c
		sp.touched++
		if consumed > k.Cfg.Quantum {
			return consumed, false, nil
		}
	}
	res, err := k.SteadyRun(p, k.Cfg.Quantum, sp.sampler)
	if err != nil {
		return consumed, false, err
	}
	return consumed + res.Consumed, p.WorkDone >= sp.work, nil
}

func TestSteadyRunOverheadBaseVsHuge(t *testing.T) {
	// A random working set far larger than TLB reach: base pages must show
	// high MMU overhead, huge pages near zero (Table 3's cg.D shape).
	const pages = 512 * 256 // 256 regions = 512 MB
	run := func(d Decision) (float64, sim.Time) {
		k := newTestKernel(t, 1024, d)
		prog := &steadyProgram{
			pages:   pages,
			work:    5,
			sampler: &steadySampler{pages: pages, profile: AccessProfile{Locality: 1, CyclesPerAccess: 250}},
		}
		p := k.Spawn("steady", prog)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return p.PMU.Overhead(), p.Runtime(k.Now())
	}
	baseOv, baseRT := run(DecideBase)
	hugeOv, hugeRT := run(DecideHuge)
	if baseOv < 0.15 {
		t.Fatalf("base overhead = %.3f, want substantial", baseOv)
	}
	if hugeOv > 0.05 {
		t.Fatalf("huge overhead = %.3f, want ≈ 0", hugeOv)
	}
	if hugeRT >= baseRT {
		t.Fatalf("huge runtime %v not faster than base %v", hugeRT, baseRT)
	}
}

func TestSteadyRunPMUCounters(t *testing.T) {
	k := newTestKernel(t, 256, DecideBase)
	prog := &steadyProgram{
		pages:   512 * 64,
		work:    1,
		sampler: &steadySampler{pages: 512 * 64, profile: AccessProfile{Locality: 1, CyclesPerAccess: 250}},
	}
	p := k.Spawn("steady", prog)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.PMU.TotalCycles <= 0 || p.PMU.WalkCycles <= 0 {
		t.Fatalf("PMU not charged: %+v", p.PMU)
	}
	if p.PMU.Overhead() <= 0 || p.PMU.Overhead() >= 1 {
		t.Fatalf("overhead out of range: %v", p.PMU.Overhead())
	}
}

func TestSlowdownFactorReducesWork(t *testing.T) {
	k := newTestKernel(t, 256, DecideBase)
	s := &steadySampler{pages: 100, profile: AccessProfile{Locality: 0, CyclesPerAccess: 250}}
	p := k.Spawn("idle", &touchRange{start: 0, end: 100})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	res1, err := k.SteadyRun(p, sim.Second, s)
	if err != nil {
		t.Fatal(err)
	}
	k.SlowdownFactor = 1.25
	res2, err := k.SteadyRun(p, sim.Second, s)
	if err != nil {
		t.Fatal(err)
	}
	if res2.WorkSeconds >= res1.WorkSeconds {
		t.Fatalf("slowdown had no effect: %v vs %v", res2.WorkSeconds, res1.WorkSeconds)
	}
}

func TestSpawnAtDelaysStart(t *testing.T) {
	k := newTestKernel(t, 64, DecideBase)
	p := k.SpawnAt(5*sim.Second, "late", &touchRange{start: 0, end: 10})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.StartedAt != 5*sim.Second {
		t.Fatalf("started at %v, want 5s", p.StartedAt)
	}
	if !p.Done {
		t.Fatal("late program did not run")
	}
}

func TestFragmentMemoryDestroysContiguity(t *testing.T) {
	k := newTestKernel(t, 64, DecideBase)
	if k.Alloc.HugePageCapacity() == 0 {
		t.Fatal("fresh machine has no huge capacity")
	}
	k.FragmentMemory(0.1)
	if k.Alloc.HugePageCapacity() != 0 {
		t.Fatalf("huge capacity = %d after fragmentation", k.Alloc.HugePageCapacity())
	}
	// But most memory is still free (cache pages were dropped).
	if k.Alloc.FreePages() < k.Alloc.TotalPages()/2 {
		t.Fatalf("too little free memory after fragmentation: %d", k.Alloc.FreePages())
	}
}

func TestMadviseReleasesMemory(t *testing.T) {
	k := newTestKernel(t, 64, DecideHuge)
	p := k.Spawn("toucher", &touchRange{start: 0, end: 1024})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	rssBefore := p.VP.RSS()
	k.Madvise(p, 0, 512)
	if p.VP.RSS() != rssBefore-512 {
		t.Fatalf("RSS after madvise = %d, want %d", p.VP.RSS(), rssBefore-512)
	}
}

func TestPromoteDemoteRegionDaemonPath(t *testing.T) {
	k := newTestKernel(t, 64, DecideBase)
	p := k.Spawn("toucher", &touchRange{start: 0, end: 512})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	r := p.VP.Region(0)
	cost, ok := k.PromoteRegion(p, r)
	if !ok || cost <= 0 {
		t.Fatalf("promotion failed: ok=%v cost=%v", ok, cost)
	}
	if !r.Huge {
		t.Fatal("region not huge")
	}
	if k.PromoteTime == 0 {
		t.Fatal("daemon time not charged")
	}
	k.DemoteRegion(p, r)
	if r.Huge {
		t.Fatal("region still huge")
	}
}

func TestNestedFaultsCostMore(t *testing.T) {
	k := newTestKernel(t, 64, DecideBase)
	native := k.Spawn("native", &touchRange{start: 0, end: 500})
	guest := k.Spawn("guest", &touchRange{start: 0, end: 500})
	guest.Nested = true
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if guest.Acct.FaultTime() == native.Acct.FaultTime() {
		// Fault accounting is in the accountant (identical) — the surcharge
		// shows in runtime.
		if guest.Runtime(k.Now()) <= native.Runtime(k.Now()) {
			t.Fatal("nested faults not more expensive")
		}
	}
}

func TestNestedWalksRaiseOverhead(t *testing.T) {
	const pages = 512 * 256
	run := func(nested bool) float64 {
		k := newTestKernel(t, 1024, DecideBase)
		prog := &steadyProgram{
			pages:   pages,
			work:    3,
			sampler: &steadySampler{pages: pages, profile: AccessProfile{Locality: 1, CyclesPerAccess: 250}},
		}
		p := k.Spawn("steady", prog)
		p.Nested = nested
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return p.PMU.Overhead()
	}
	if nat, virt := run(false), run(true); virt <= nat {
		t.Fatalf("nested overhead %.3f not above native %.3f", virt, nat)
	}
}

func TestTLBConsistencyAcrossPromotion(t *testing.T) {
	k := newTestKernel(t, 64, DecideBase)
	p := k.Spawn("t", &touchRange{start: 0, end: 512})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	s := &steadySampler{pages: 512, profile: AccessProfile{Locality: 0.5, CyclesPerAccess: 250}}
	if _, err := k.SteadyRun(p, sim.Second, s); err != nil {
		t.Fatal(err)
	}
	r := p.VP.Region(0)
	if _, ok := k.PromoteRegion(p, r); !ok {
		t.Fatal("promotion failed")
	}
	// After promotion the old 4 KB entries must be gone; accesses now use
	// the huge array. Just verify nothing panics and overhead drops.
	res, err := k.SteadyRun(p, sim.Second, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.MMUOverhead > 0.2 {
		t.Fatalf("overhead after promotion = %.3f", res.MMUOverhead)
	}
}
