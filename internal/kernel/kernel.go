// Package kernel ties the simulator's substrates together into an
// operating-system model: it owns the discrete-event engine, the physical
// allocator, the content store, the virtual-memory layer and the TLB, runs
// simulated processes (Programs), resolves page faults through a pluggable
// huge-page Policy, and maintains the per-process PMU counters from which
// MMU overheads are measured.
package kernel

import (
	"hawkeye/internal/content"
	"hawkeye/internal/fault"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/tlb"
	"hawkeye/internal/trace"
	"hawkeye/internal/vmm"
)

// CyclesPerMicro is the simulated core frequency (2.3 GHz Haswell-EP).
const CyclesPerMicro = 2300.0

// Config describes one simulated machine.
type Config struct {
	MemoryBytes mem.Bytes  // DRAM size
	TLB         tlb.Config // translation hardware
	Fault       fault.Model
	Quantum     sim.Time // default scheduling quantum for programs
	Seed        uint64
	// SamplesPerQuantum controls the TLB-simulation sampling density of
	// SteadyRun.
	SamplesPerQuantum int
	// Engine, when non-nil, co-simulates this kernel on an existing engine
	// (guest machines share the host's clock). Kernels on a shared engine
	// never auto-stop it.
	Engine *sim.Engine
	// SwapBytes sizes the SSD-backed swap partition (0 = no swap). With
	// swap, anonymous-allocation failures page out cold base pages instead
	// of OOM-killing, and touching a swapped page costs a major fault.
	SwapBytes mem.Bytes
	// Trace, when non-nil, attaches a deterministic trace.Recorder to the
	// machine: events at every mm decision point, vmstat-style counters, and
	// (with Trace.SampleEvery > 0) periodic counter series in the machine's
	// sim.Recorder. Tracing never influences simulation results.
	Trace *trace.Config
}

// DefaultConfig returns an 8 GB machine (the paper's 96 GB host at 1/12
// scale) with Haswell-EP translation hardware.
func DefaultConfig() Config {
	return Config{
		MemoryBytes:       8 << 30,
		TLB:               tlb.HaswellEP(),
		Fault:             fault.Default(),
		Quantum:           100 * sim.Millisecond,
		Seed:              1,
		SamplesPerQuantum: 512,
	}
}

// Decision is a policy's answer to "how should this fault be mapped?".
type Decision int

// Fault-time mapping decisions.
const (
	// DecideBase maps a single 4 KB page.
	DecideBase Decision = iota
	// DecideHuge maps the whole 2 MB region with a huge page (falls back to
	// base if no contiguous block is available).
	DecideHuge
	// DecideReserve reserves a 2 MB physical block for the region and maps
	// a 4 KB page from it in place (FreeBSD-style; falls back to base).
	DecideReserve
)

// Policy chooses fault-time page sizes and runs background promotion
// machinery. Attach is called once, when the kernel is created, and is
// where a policy schedules its daemons on the engine.
type Policy interface {
	Name() string
	Attach(k *Kernel)
	OnFault(k *Kernel, p *Proc, r *vmm.Region, vpn vmm.VPN) Decision
}

// Proc is a simulated process: an address space plus execution state.
type Proc struct {
	VP   *vmm.Process
	PMU  tlb.PMU
	Acct *fault.Accountant

	Program Program
	Nested  bool // translations go through nested paging (guest process)
	// NestedDiscount scales nested walk cost below the worst case when the
	// host maps this guest's physical memory with huge pages (set by the
	// virtualization layer; 0 means 1.0).
	NestedDiscount float64
	// VM groups guest processes of the same virtual machine (nil = native).
	VM *VM

	StartedAt  sim.Time
	FinishedAt sim.Time
	Done       bool
	OOMKilled  bool

	// WorkDone accumulates useful work in simulated seconds (excludes fault
	// stalls and MMU overhead); programs use it to track progress.
	WorkDone float64

	rng *sim.Rand
	// runBuf is the reusable per-quantum access buffer of SteadyRun.
	runBuf []AccessRun
}

// Name returns the process name.
func (p *Proc) Name() string { return p.VP.Name }

// PID returns the process id.
func (p *Proc) PID() int { return p.VP.PID }

// Rand returns the process-private RNG stream.
func (p *Proc) Rand() *sim.Rand { return p.rng }

// Runtime reports wall-clock runtime (so far, or final when Done).
func (p *Proc) Runtime(now sim.Time) sim.Time {
	if p.Done {
		return p.FinishedAt - p.StartedAt
	}
	return now - p.StartedAt
}

// Program is the workload code of a process. Step performs a bounded amount
// of work through the kernel API and returns how much simulated time it
// consumed; the kernel reschedules the next step after that interval.
type Program interface {
	Step(k *Kernel, p *Proc) (consumed sim.Time, done bool, err error)
}

// Kernel is one simulated machine image.
type Kernel struct {
	Cfg     Config
	Engine  *sim.Engine
	Alloc   *mem.Allocator
	Content *content.Store
	VMM     *vmm.VMM
	TLB     *tlb.TLB
	Rec     *sim.Recorder
	Policy  Policy

	procs        []*Proc
	sharedEngine bool

	// SlowdownFactor multiplies effective MMU-and-cache overhead observed
	// by programs; the pre-zeroing thread raises it when running with
	// cache-polluting (temporal) stores (Fig. 10).
	SlowdownFactor float64

	// Daemon (background kernel thread) accounting.
	DaemonTime  sim.Time // total background CPU time consumed
	PrezeroTime sim.Time
	BloatTime   sim.Time
	PromoteTime sim.Time

	// OOMs counts processes killed for lack of memory.
	OOMs int

	// Swap is the optional swap device (nil without Config.SwapBytes).
	Swap *vmm.SwapDevice
	// SwapOutTime accumulates the reclaim daemon's page-out cost.
	SwapOutTime sim.Time
	swapCursor  int // round-robin victim-selection cursor

	// Trace is the machine's event recorder (nil = tracing off). The
	// counter handles below are nil-safe, so every hook site costs one
	// branch when tracing is disabled (DESIGN.md §8).
	Trace          *trace.Recorder
	ctrPgFault     *trace.Counter
	ctrPgMajFault  *trace.Counter
	ctrThpFault    *trace.Counter
	ctrThpCollapse *trace.Counter
	ctrThpSplit    *trace.Counter
	ctrPswpIn      *trace.Counter
	ctrPswpOut     *trace.Counter
	ctrCOWBreak    *trace.Counter
	ctrOOMKill     *trace.Counter
}

// New builds a machine with the given policy attached.
func New(cfg Config, pol Policy) *Kernel {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 100 * sim.Millisecond
	}
	if cfg.SamplesPerQuantum <= 0 {
		cfg.SamplesPerQuantum = 512
	}
	eng := cfg.Engine
	shared := eng != nil
	if eng == nil {
		eng = sim.NewEngine(cfg.Seed)
	}
	alloc := mem.NewAllocator(cfg.MemoryBytes)
	swapSlots := cfg.SwapBytes.Pages()
	store := content.NewStore(int64(alloc.TotalPages()+swapSlots), eng.Rand.Fork())
	k := &Kernel{
		Cfg:            cfg,
		Engine:         eng,
		Alloc:          alloc,
		Content:        store,
		VMM:            vmm.New(alloc, store),
		TLB:            tlb.New(cfg.TLB),
		Rec:            sim.NewRecorder(&eng.Clock),
		Policy:         pol,
		SlowdownFactor: 1,
		sharedEngine:   shared,
	}
	if swapSlots > 0 {
		k.Swap = vmm.NewSwapDevice(mem.FrameID(alloc.TotalPages()), swapSlots)
		k.VMM.Swap = k.Swap
	}
	if cfg.Trace != nil {
		k.attachTrace(*cfg.Trace)
	}
	if pol != nil {
		pol.Attach(k)
	}
	k.startKcompactd()
	return k
}

// attachTrace wires the observability layer into the machine: the event
// recorder, the push-counter handles used by the fault/reclaim hook sites,
// the pull gauges mirroring /proc/vmstat's nr_* lines, and (when configured)
// the periodic counter sampler. Runs before Policy.Attach so policies can
// register their own counters/gauges on k.Trace.
func (k *Kernel) attachTrace(cfg trace.Config) {
	k.Trace = trace.NewRecorder(&k.Engine.Clock, cfg)
	cs := k.Trace.Counters
	k.ctrPgFault = cs.Counter("pgfault")
	k.ctrPgMajFault = cs.Counter("pgmajfault")
	k.ctrThpFault = cs.Counter("thp_fault_alloc")
	k.ctrThpCollapse = cs.Counter("thp_collapse_alloc")
	k.ctrThpSplit = cs.Counter("thp_split")
	k.ctrPswpIn = cs.Counter("pswpin")
	k.ctrPswpOut = cs.Counter("pswpout")
	k.ctrCOWBreak = cs.Counter("cow_break")
	k.ctrOOMKill = cs.Counter("oom_kill")
	cs.Gauge("nr_free_pages", func() float64 { return float64(k.Alloc.FreePages()) })
	cs.Gauge("nr_zero_free_pages", func() float64 { return float64(k.Alloc.ZeroFreePages()) })
	cs.Gauge("nr_file_pages", func() float64 { return float64(k.Alloc.FileCachePages()) })
	cs.Gauge("nr_anon_pages", func() float64 { return float64(k.Alloc.TagPages(mem.TagAnon)) })
	cs.Gauge("nr_huge_capacity", func() float64 { return float64(k.Alloc.HugePageCapacity()) })
	cs.Gauge("fmfi_huge", func() float64 { return k.Alloc.FMFI(mem.HugeOrder) })
	cs.Gauge("contiguity_huge", func() float64 { return k.Alloc.ContiguityFraction(mem.HugeOrder) })
	cs.Gauge("nr_swap_used", func() float64 {
		if k.Swap == nil {
			return 0
		}
		return float64(k.Swap.Used())
	})
	// Hardware-walk totals across every process, the numerator/denominator
	// of the paper's MMU-overhead metric (walks over unhalted cycles).
	cs.Gauge("walk_cycles", func() float64 {
		var w float64
		for _, p := range k.procs {
			w += float64(p.PMU.WalkCycles)
		}
		return w
	})
	cs.Gauge("daemon_time_us", func() float64 { return float64(k.DaemonTime) })
	k.Alloc.SetTrace(k.Trace)
	k.TLB.SetTrace(k.Trace)
	k.VMM.SetTrace(k.Trace)
	// Chunk materializations across every copy-on-write table. On a forked
	// machine this counts the write traffic against the snapshot image; on
	// a fresh machine it counts ordinary first-touch materializations, so
	// the counter is meaningful (and deterministic) either way.
	cowCtr := cs.Counter("snapshot_cow_dirty_chunks")
	k.Alloc.SetCOWCounter(cowCtr)
	k.Content.SetCOWCounter(cowCtr)
	k.VMM.SetCOWCounter(cowCtr)
	trace.Sampler{Every: cfg.SampleEvery, Names: cfg.SampleNames}.Attach(k.Engine, cs, k.Rec)
}

// startKcompactd runs the background compaction daemon every kernel has
// (Linux's kcompactd): while free memory is plentiful but huge-page-sized
// blocks are scarce, rebuild a few. This keeps the fragmentation index low
// on lightly-loaded machines, which is what lets both Linux's THP fault
// path and Ingens' aggressive phase find contiguity after churn.
func (k *Kernel) startKcompactd() {
	k.Engine.Every(2*sim.Second, "kcompactd", func(*sim.Engine) (bool, error) {
		if k.Alloc.FreePages()*4 < k.Alloc.TotalPages() {
			return true, nil // tight on memory: compaction won't help
		}
		if k.Alloc.HugePageCapacity() >= 16 {
			return true, nil
		}
		k.Alloc.Compact(8)
		return true, nil
	})
}

// Now returns current simulated time.
func (k *Kernel) Now() sim.Time { return k.Engine.Now() }

// Procs returns every process ever spawned, in spawn order.
func (k *Kernel) Procs() []*Proc { return k.procs }

// LiveProcs returns processes that are neither done nor dead.
func (k *Kernel) LiveProcs() []*Proc {
	out := make([]*Proc, 0, len(k.procs))
	for _, p := range k.procs {
		if !p.Done && !p.VP.Dead {
			out = append(out, p)
		}
	}
	return out
}

// Spawn creates a process running prog and schedules its first step.
func (k *Kernel) Spawn(name string, prog Program) *Proc {
	p := &Proc{
		VP:        k.VMM.NewProcess(name),
		Acct:      fault.NewAccountant(k.Cfg.Fault),
		Program:   prog,
		StartedAt: k.Now(),
		rng:       k.Engine.Rand.Fork(),
	}
	k.procs = append(k.procs, p)
	k.Trace.TrackName(int32(p.VP.PID), name)
	k.scheduleStep(p, 0)
	return p
}

// SpawnAt schedules the process to start after a delay.
func (k *Kernel) SpawnAt(delay sim.Time, name string, prog Program) *Proc {
	p := &Proc{
		VP:      k.VMM.NewProcess(name),
		Acct:    fault.NewAccountant(k.Cfg.Fault),
		Program: prog,
		rng:     k.Engine.Rand.Fork(),
	}
	k.procs = append(k.procs, p)
	k.Trace.TrackName(int32(p.VP.PID), name)
	k.Engine.AfterFunc(delay, "spawn:"+name, func(*sim.Engine) error {
		p.StartedAt = k.Now()
		k.stepOnce(p)
		return nil
	})
	return p
}

func (k *Kernel) scheduleStep(p *Proc, after sim.Time) {
	k.Engine.AfterFunc(after, "step:"+p.VP.Name, func(*sim.Engine) error {
		k.stepOnce(p)
		return nil
	})
}

func (k *Kernel) stepOnce(p *Proc) {
	if p.Done || p.VP.Dead {
		return
	}
	consumed, done, err := p.Program.Step(k, p)
	if err != nil {
		// Out of memory (or a program bug): the process is killed, its
		// memory released. Experiments observe OOMKilled.
		p.OOMKilled = true
		p.Done = true
		p.FinishedAt = k.Now()
		k.OOMs++
		k.ctrOOMKill.Inc()
		k.VMM.Exit(p.VP)
		k.TLB.InvalidateProcess(int32(p.VP.PID))
		k.stopIfIdle()
		return
	}
	if done {
		p.Done = true
		p.FinishedAt = k.Now() + consumed
		k.stopIfIdle()
		return
	}
	if consumed < sim.Microsecond {
		consumed = sim.Microsecond
	}
	k.scheduleStep(p, consumed)
}

// stopIfIdle halts the engine once no program remains runnable — policy
// daemons reschedule themselves forever, so without this the event queue
// would never drain.
func (k *Kernel) stopIfIdle() {
	if k.sharedEngine {
		return
	}
	if len(k.LiveProcs()) == 0 {
		k.Engine.Stop()
	}
}

// Run drives the machine until the deadline (0 = until idle).
func (k *Kernel) Run(deadline sim.Time) error { return k.Engine.Run(deadline) }

// UsedFraction reports allocated/total memory.
func (k *Kernel) UsedFraction() float64 { return k.Alloc.UsedFraction() }

// FragmentMemory shatters physical contiguity the way the paper does before
// its recovery experiments (reading many files): it fills all of memory
// with page-cache pages, then drops most of them, keeping a resident cache
// page every few frames so that no huge-page-sized free block survives
// anywhere. keep is the fraction of memory left as resident page cache
// (e.g. 0.1); the cache pages are reclaimable under pressure but destroy
// contiguity until reclaimed or compacted.
func (k *Kernel) FragmentMemory(keep float64) {
	k.FragmentMemoryPinned(keep, DefaultPinnedChunkFrac)
}

// DefaultPinnedChunkFrac is the fraction of 2 MB chunks FragmentMemory pins
// with an unmovable kernel page — exported so the snapshot cache can key
// warm-ups on the exact fragmentation parameters.
const DefaultPinnedChunkFrac = 0.35

// FragmentMemoryPinned is FragmentMemory with explicit control over the
// fraction of 2 MB chunks that receive a permanently unmovable kernel page
// (slab/pinned allocations): those chunks can never be rebuilt into huge
// pages, no matter how much page cache is reclaimed or memory compacted —
// the persistent component of real-world fragmentation.
func (k *Kernel) FragmentMemoryPinned(keep, pinnedChunkFrac float64) {
	if keep <= 0 {
		keep = 0.05
	}
	if keep > 0.9 {
		keep = 0.9
	}
	stride := int(1 / keep)
	if stride < 2 {
		stride = 2
	}
	// Drain the whole machine into page cache in one bulk pass; the frames
	// come back in the order page-by-page allocation would produce.
	blocks := k.Alloc.DrainAllFile()
	// Decide which chunks get a kernel pin, deterministically from the seed.
	rng := k.Engine.Rand.Fork()
	totalChunks := int64(k.Alloc.TotalPages().Regions())
	pinned := make([]bool, totalChunks)
	for c := range pinned {
		if rng.Float64() < pinnedChunkFrac {
			pinned[c] = true
		}
	}
	pinDone := make([]bool, totalChunks)
	for i, head := range blocks {
		chunk := int64(head) >> mem.HugeOrder
		if i%stride != stride-1 {
			k.Alloc.Free(head, 0, true)
			continue
		}
		if pinned[chunk] && !pinDone[chunk] {
			// Convert this resident cache page into an unmovable kernel
			// allocation: free it and immediately re-allocate... the buddy
			// would hand back a different frame, so retag it in place.
			k.Alloc.RetagFrame(head, mem.TagKernel)
			pinDone[chunk] = true
		}
	}
}

// --- VM grouping (used by the virt layer) --------------------------------

// VM tags a group of guest processes with a shared memory budget; the virt
// package builds on this.
type VM struct {
	Name   string
	Budget int64 // pages
	Used   int64 // pages charged to this VM at the host
}
