package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"
)

// A layer is one of the simulator's packages, named by its directory under
// internal/, or one of the groups below.
//
//   - memo, replay and snapshot are fast-path layers carved out of the
//     packages they live in by file, so each costs one number.
//   - runtime is the Go runtime: GC, malloc, scheduling.
//   - other is everything else: the standard library with no simulator
//     caller (the profiler's own writer) and the benchmark's own code.
//
// A sample's self time goes to the layer of its leaf frame. A standard
// library leaf outside the runtime (sort, sync, math) is charged to its
// nearest simulator caller, which asked for that work.
var packageLayers = []string{
	"tlb", "vmm", "mem", "cow", "content", "kernel", "fault", "sim",
	"workload", "core", "policy", "ksm", "virt", "experiments", "trace",
	"introspect",
}

// layers lists every self-time bucket in report order.
var layers = append(append([]string{}, packageLayers...), "memo", "replay", "snapshot", "runtime", "other")

// carveOuts assigns simulator files to the fast-path layers, by path suffix
// (or, for the * entries, by base name in any package).
var carveOuts = []struct{ suffix, layer string }{
	{"/internal/memo/", "memo"},
	{"*/memo.go", "memo"},
	{"/internal/workload/trace.go", "replay"},
	{"/internal/workload/tracecache.go", "replay"},
	{"/internal/snapshot/", "snapshot"},
	{"/internal/kernel/snapshot.go", "snapshot"},
	{"*/clone.go", "snapshot"},
}

// entryPoints are the public functions whose inclusive time the traced run
// reports: every sample with one of the functions on its stack counts once.
var entryPoints = []struct {
	metric string
	funcs  []string
}{
	{"kernel.steady_cpu_s", []string{"kernel.(*Kernel).SteadyRun"}},
	{"kernel.populate_cpu_s", []string{"kernel.(*Kernel).TouchRange", "kernel.(*Kernel).Touch"}},
	{"kernel.fragment_cpu_s", []string{"kernel.(*Kernel).FragmentMemoryPinned"}},
	{"kernel.fork_cpu_s", []string{"kernel.(*Snapshot).Fork"}},
	{"kernel.release_cpu_s", []string{"kernel.(*Kernel).Release"}},
	{"kernel.promote_cpu_s", []string{"kernel.(*Kernel).PromoteRegion", "kernel.(*Kernel).DemoteRegion"}},
	{"tlb.translate_cpu_s", []string{"tlb.(*TLB).Access", "tlb.(*TLB).AccessRun"}},
	{"mem.alloc_cpu_s", []string{"mem.(*Allocator).Alloc", "mem.(*Allocator).AllocOpportunistic", "mem.(*Allocator).Free"}},
	{"mem.compact_cpu_s", []string{"mem.(*Allocator).Compact"}},
	{"vmm.bloat_scan_cpu_s", []string{"vmm.(*VMM).ScanForZero", "vmm.(*VMM).DedupHuge"}},
	{"workload.replay_cpu_s", []string{"workload.(*ReplaySampler).SampleRun", "workload.(*ReplaySampler).PeekChunk"}},
	{"workload.sample_cpu_s", []string{"workload.(*Sampler).SampleRun", "workload.(*Sampler).Sample"}},
	{"sim.engine_cpu_s", []string{"sim.(*Engine).Run"}},
	{"runtime.gc_cpu_s", []string{"runtime.gcBgMarkWorker"}},
	{"runtime.malloc_cpu_s", []string{"runtime.mallocgc"}},
}

// modulePrefix is the simulator's import path with the trailing slash.
const modulePrefix = "hawkeye/internal/"

type frame struct {
	fn, file string
}

type sample struct {
	op     string // the pprof "op" label; "" for unlabelled samples (GC workers)
	secs   float64
	frames []frame // leaf first
}

// parseTraces reads the output of `go tool pprof -traces -lines`.
func parseTraces(txt []byte) ([]sample, error) {
	var out []sample
	var cur *sample
	sc := bufio.NewScanner(bytes.NewReader(txt))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "-----------+"):
			if cur != nil {
				out = append(out, *cur)
			}
			cur = &sample{}
		case cur == nil || trimmed == "":
			// Header lines before the first separator.
		case len(cur.frames) == 0 && isLabelLine(line):
			key, val, _ := strings.Cut(trimmed, ":")
			if key == "op" {
				cur.op = strings.TrimSpace(val)
			}
		default:
			// "%10s   func file:line[ (inline)]": the value column is
			// filled on a stack's first line only.
			if len(line) < 13 {
				return nil, fmt.Errorf("traces line %d: too short: %q", n, line)
			}
			if v := strings.TrimSpace(line[:10]); v != "" {
				d, err := time.ParseDuration(v)
				if err != nil {
					return nil, fmt.Errorf("traces line %d: value %q: %w", n, v, err)
				}
				cur.secs = d.Seconds()
			}
			f, err := parseFrame(strings.TrimSpace(line[10:]))
			if err != nil {
				return nil, fmt.Errorf("traces line %d: %w", n, err)
			}
			cur.frames = append(cur.frames, f)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The closing separator leaves an empty sample behind; drop empties.
	kept := out[:0]
	for _, s := range out {
		if len(s.frames) > 0 {
			kept = append(kept, s)
		}
	}
	return kept, nil
}

// isLabelLine reports whether a line is a "%10s:  %s" string label. The
// colon sits right after the right-aligned key, in column 10.
func isLabelLine(line string) bool {
	return len(line) > 12 && line[10] == ':' && line[11] == ' ' && strings.TrimSpace(line[:10]) != ""
}

// parseFrame splits "func file:line[ (inline)]". Generic function names may
// contain spaces (go.shape.struct { ... }), so the file is taken from the
// right.
func parseFrame(s string) (frame, error) {
	s = strings.TrimSuffix(s, " (inline)")
	i := strings.LastIndexByte(s, ' ')
	if i < 0 {
		return frame{}, fmt.Errorf("frame without a file: %q", s)
	}
	file := s[i+1:]
	if j := strings.LastIndexByte(file, ':'); j >= 0 {
		file = file[:j]
	}
	return frame{fn: s[:i], file: file}, nil
}

// packagePath returns the import path of a function symbol. Type arguments
// and receivers come after the first '[' or '(', and the package path ends
// at the first '.' after its last '/'.
func packagePath(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/")
}

// layerOf classifies a frame of the simulator package pkg.
func layerOf(f frame, pkg string) string {
	for _, c := range carveOuts {
		if base, ok := strings.CutPrefix(c.suffix, "*"); ok {
			if strings.HasSuffix(f.file, base) {
				return c.layer
			}
		} else if strings.Contains(f.file, c.suffix) {
			return c.layer
		}
	}
	rel := strings.TrimPrefix(pkg, modulePrefix)
	if rel == "mem/cow" {
		return "cow"
	}
	for _, l := range packageLayers {
		if rel == l {
			return l
		}
	}
	return "other"
}

// selfLayer is the layer a sample's self time is charged to: the first
// frame from the leaf that is in the runtime, the simulator, the benchmark
// or the profiler; other standard library frames pass the charge up.
func selfLayer(frames []frame) string {
	for _, f := range frames {
		pkg := packagePath(f.fn)
		switch {
		case pkg == "main" || pkg == "runtime/pprof":
			return "other"
		case isRuntime(pkg):
			return "runtime"
		case strings.HasPrefix(pkg, modulePrefix):
			return layerOf(f, pkg)
		}
	}
	return "other"
}

// profileSummary is the per-layer breakdown of one traced run.
type profileSummary struct {
	total   float64 // s of CPU the profile saw
	samples int
	self    map[string]float64            // layer → s
	counts  map[string]int                // layer → samples
	incl    map[string]float64            // entry-point metric → s
	byOp    map[string]map[string]float64 // op → layer → s
}

// cpuProfileHz is runtime/pprof's sampling rate: one sample is 10 ms of CPU.
const cpuProfileHz = 100

func summarizeProfile(samples []sample) profileSummary {
	ps := profileSummary{
		self:   map[string]float64{},
		counts: map[string]int{},
		incl:   map[string]float64{},
		byOp:   map[string]map[string]float64{},
	}
	for _, s := range samples {
		// A record aggregates every identical stack, so it may hold
		// several samples.
		n := int(math.Round(s.secs * cpuProfileHz))
		ps.total += s.secs
		ps.samples += n
		l := selfLayer(s.frames)
		ps.self[l] += s.secs
		ps.counts[l] += n
		if ps.byOp[s.op] == nil {
			ps.byOp[s.op] = map[string]float64{}
		}
		ps.byOp[s.op][l] += s.secs
		for _, e := range entryPoints {
			if onStack(s.frames, e.funcs) {
				ps.incl[e.metric] += s.secs
			}
		}
	}
	return ps
}

// onStack reports whether any frame is one of funcs, given without the
// module prefix for simulator functions.
func onStack(frames []frame, funcs []string) bool {
	for _, f := range frames {
		name := strings.TrimPrefix(f.fn, modulePrefix)
		for _, want := range funcs {
			if name == want {
				return true
			}
		}
	}
	return false
}
