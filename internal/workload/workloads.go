package workload

import (
	"fmt"

	"hawkeye/internal/tlb"

	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
)

// GB is one gibibyte.
const GB = mem.Bytes(1) << 30

// Spec describes a steady-state workload: footprint, address-stream shape,
// and the useful-work duration calibrated so that 4 KB-page runtimes match
// the paper's numbers at the default machine scale.
type Spec struct {
	Name        string
	Footprint   mem.Bytes // at full (paper) scale
	WorkSeconds float64

	Kind            Pattern
	Locality        float64
	CyclesPerAccess float64
	AccessesPerPage int
	HotFrac         float64
	HotProb         float64
	WriteFrac       float64

	// PopulateCost is extra per-page application work during population.
	PopulateCost sim.Time
}

// Catalog returns the built-in workload descriptors, keyed by name.
// Locality / cycles-per-access values are calibrated against Table 3
// (NPB), Table 5 (Graph500, XSBench) and Table 9 (random, sequential).
func Catalog() map[string]Spec {
	specs := []Spec{
		// Graph500 and XSBench: hot data concentrated in HIGH virtual
		// addresses (Fig. 6), substantial 4K overheads (~14%).
		{Name: "graph500", Footprint: 96 * GB / 10, WorkSeconds: 1950,
			Kind: Hotspot, HotFrac: 0.15, HotProb: 0.90, Locality: 0.80, CyclesPerAccess: 820, WriteFrac: 0.2},
		{Name: "xsbench", Footprint: 13 * GB, WorkSeconds: 2060,
			Kind: Hotspot, HotFrac: 0.12, HotProb: 0.92, Locality: 0.85, CyclesPerAccess: 780, WriteFrac: 0.05},

		// NPB class D kernels (Table 3).
		{Name: "bt.D", Footprint: 10 * GB, WorkSeconds: 600,
			Kind: Uniform, Locality: 0.10, CyclesPerAccess: 527, WriteFrac: 0.3},
		{Name: "sp.D", Footprint: 12 * GB, WorkSeconds: 600,
			Kind: Uniform, Locality: 0.02, CyclesPerAccess: 560, WriteFrac: 0.3},
		{Name: "lu.D", Footprint: 8 * GB, WorkSeconds: 600,
			Kind: Sequential, AccessesPerPage: 4, Locality: 0.10, CyclesPerAccess: 280, WriteFrac: 0.3},
		{Name: "mg.D", Footprint: 24 * GB, WorkSeconds: 1350,
			Kind: Sequential, AccessesPerPage: 8, Locality: 0.0, CyclesPerAccess: 250, WriteFrac: 0.3},
		{Name: "cg.D", Footprint: 16 * GB, WorkSeconds: 1190,
			Kind: Uniform, Locality: 1.0, CyclesPerAccess: 250, WriteFrac: 0.1},
		{Name: "ft.D", Footprint: 26 * GB, WorkSeconds: 600,
			Kind: Uniform, Locality: 0.15, CyclesPerAccess: 1100, WriteFrac: 0.4},
		{Name: "ua.D", Footprint: 96 * GB / 10, WorkSeconds: 600,
			Kind: Sequential, AccessesPerPage: 8, Locality: 0.05, CyclesPerAccess: 380, WriteFrac: 0.3},

		// Table 9 synthetic pair.
		{Name: "random", Footprint: 4 * GB, WorkSeconds: 233,
			Kind: Uniform, Locality: 1.0, CyclesPerAccess: 107, WriteFrac: 0.2},
		{Name: "sequential", Footprint: 4 * GB, WorkSeconds: 513,
			Kind: Sequential, AccessesPerPage: 8, Locality: 0.0, CyclesPerAccess: 460, WriteFrac: 0.2},

		// Lightly-loaded Redis for Fig. 8: huge uniform footprint but very
		// low memory intensity (10 K req/s): TLB insensitive.
		{Name: "redis-light", Footprint: 41 * GB, WorkSeconds: 1e9,
			Kind: Uniform, Locality: 0.9, CyclesPerAccess: 20000, WriteFrac: 0.1},

		// Named suite members the paper calls out individually (Table 2's
		// TLB-sensitive sets and Fig. 10's victims). Parameters follow the
		// published MMU-overhead characterizations of each application.
		{Name: "mcf", Footprint: 2 * GB, WorkSeconds: 400,
			Kind: Uniform, Locality: 0.95, CyclesPerAccess: 180, WriteFrac: 0.2},
		{Name: "omnetpp", Footprint: GB / 2, WorkSeconds: 350,
			Kind: Uniform, Locality: 0.85, CyclesPerAccess: 300, WriteFrac: 0.3},
		{Name: "xalancbmk", Footprint: GB / 2, WorkSeconds: 300,
			Kind: Uniform, Locality: 0.8, CyclesPerAccess: 350, WriteFrac: 0.2},
		{Name: "astar", Footprint: GB, WorkSeconds: 300,
			Kind: Hotspot, HotFrac: 0.3, HotProb: 0.85, Locality: 0.8, CyclesPerAccess: 400, WriteFrac: 0.2},
		{Name: "canneal", Footprint: 3 * GB, WorkSeconds: 300,
			Kind: Uniform, Locality: 0.9, CyclesPerAccess: 500, WriteFrac: 0.3},
		{Name: "tigr", Footprint: 2 * GB, WorkSeconds: 300,
			Kind: Uniform, Locality: 0.9, CyclesPerAccess: 450, WriteFrac: 0.1},
		{Name: "mummer", Footprint: 3 * GB, WorkSeconds: 300,
			Kind: Hotspot, HotFrac: 0.4, HotProb: 0.9, Locality: 0.85, CyclesPerAccess: 420, WriteFrac: 0.1},
		{Name: "graph-analytics", Footprint: 12 * GB, WorkSeconds: 500,
			Kind: Hotspot, HotFrac: 0.2, HotProb: 0.9, Locality: 0.9, CyclesPerAccess: 350, WriteFrac: 0.2},
		{Name: "data-analytics", Footprint: 10 * GB, WorkSeconds: 500,
			Kind: Uniform, Locality: 0.8, CyclesPerAccess: 600, WriteFrac: 0.3},
		{Name: "random-walk", Footprint: 2 * GB, WorkSeconds: 300,
			Kind: Uniform, Locality: 1.0, CyclesPerAccess: 250, WriteFrac: 0.1},
	}
	m := make(map[string]Spec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}

// Lookup fetches a catalog spec, panicking on unknown names (programming
// error in an experiment definition).
func Lookup(name string) Spec {
	s, ok := Catalog()[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown spec %q", name))
	}
	return s
}

// Instance is a runnable workload: a program plus its introspection handles.
type Instance struct {
	Spec    Spec
	Program kernel.Program
	Sampler *Sampler
	Pages   mem.Pages // scaled footprint in pages
}

// New builds a workload instance at the given footprint scale (e.g. 1/12
// on the default 8 GB machine for the paper's 96 GB host).
func New(spec Spec, scale float64) *Instance {
	if scale <= 0 {
		scale = 1
	}
	pages := mem.Bytes(float64(spec.Footprint) * scale).Pages()
	if pages < 1 {
		pages = 1
	}
	s := &Sampler{
		Base:            0,
		Pages:           pages,
		Kind:            spec.Kind,
		HotFrac:         spec.HotFrac,
		HotProb:         spec.HotProb,
		AccessesPerPage: spec.AccessesPerPage,
		WriteFrac:       spec.WriteFrac,
		Prof: kernel.AccessProfile{
			Locality:        tlb.Locality(spec.Locality),
			CyclesPerAccess: spec.CyclesPerAccess,
		},
	}
	prog := &Phased{Phases: []Phase{
		&Populate{Start: 0, Pages: pages, Write: true, OpCost: spec.PopulateCost},
		&Steady{Work: spec.WorkSeconds, Sampler: s},
	}}
	return &Instance{Spec: spec, Program: prog, Sampler: s, Pages: pages}
}

// NewByName is New(Lookup(name), scale).
func NewByName(name string, scale float64) *Instance { return New(Lookup(name), scale) }

// Microbench builds the Table 1 microbenchmark: allocate a buffer of
// `bytes`, touch one byte in every base page, release it, `repeat` times.
func Microbench(bytes mem.Bytes, repeat int, scale float64) *Instance {
	pages := mem.Bytes(float64(bytes) * scale).Pages()
	prog := &Phased{
		Repeat: repeat,
		Phases: []Phase{
			&Populate{Start: 0, Pages: pages, Write: true},
			&Free{Start: 0, Pages: pages},
		},
	}
	return &Instance{
		Spec:    Spec{Name: "microbench", Footprint: bytes},
		Program: prog,
		Pages:   pages,
	}
}

// Spinup models KVM/JVM spin-up (Table 8): the VM touches its entire
// memory during initialization and is "up" when done.
func Spinup(name string, bytes mem.Bytes, scale float64) *Instance {
	pages := mem.Bytes(float64(bytes) * scale).Pages()
	prog := &Phased{Phases: []Phase{
		&Populate{Start: 0, Pages: pages, Write: true},
	}}
	return &Instance{Spec: Spec{Name: name, Footprint: bytes}, Program: prog, Pages: pages}
}

// SparseHash models the C++ sparse-hash insert benchmark (Table 8): page
// faults interleave with per-page insert work.
func SparseHash(bytes mem.Bytes, scale float64) *Instance {
	pages := mem.Bytes(float64(bytes) * scale).Pages()
	prog := &Phased{Phases: []Phase{
		&Populate{Start: 0, Pages: pages, Write: true, OpCost: 1}, // ~1 µs/page of hashing
	}}
	return &Instance{Spec: Spec{Name: "sparsehash", Footprint: bytes}, Program: prog, Pages: pages}
}

// HACCIO models the HACC-IO checkpoint benchmark (Table 8) writing a 6 GB
// in-memory file sequentially.
func HACCIO(bytes mem.Bytes, scale float64) *Instance {
	pages := mem.Bytes(float64(bytes) * scale).Pages()
	prog := &Phased{Phases: []Phase{
		&Populate{Start: 0, Pages: pages, Write: true, OpCost: 1},
	}}
	return &Instance{Spec: Spec{Name: "haccio", Footprint: bytes}, Program: prog, Pages: pages}
}
