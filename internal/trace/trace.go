// Package trace is the simulator's deterministic observability layer,
// modeled on Linux tracepoints and /proc/vmstat: a ring-buffered Recorder of
// typed events emitted at the kernel model's decision points (faults,
// promotions, compaction, reclaim, dedup, shootdowns), a registry of named
// monotonic counters and pull gauges (Counters), a periodic counter Sampler
// that records time series into sim.Series, and exporters for JSONL, vmstat
// text snapshots and Chrome trace_event JSON (export.go).
//
// Determinism contract: every event is stamped with sim.Time from the
// machine's clock — never wall clock — and all iteration orders are
// registration or emission order, so two runs of the same seeded simulation
// produce byte-identical exports. The package is covered by the hawkeye-lint
// determinism analyzer.
//
// Disabled cost: every method of Recorder, Counter and Counters is safe on a
// nil receiver and returns immediately, so hook sites hold possibly-nil
// handles and pay one branch when tracing is off (DESIGN.md §8).
package trace

import (
	"hawkeye/internal/sim"
)

// Kind identifies the tracepoint an event came from.
type Kind uint8

// Event kinds, one per instrumented decision point.
const (
	KindPageFault Kind = iota
	KindPromoteRegion
	KindDemoteRegion
	KindCompactionPass
	KindDedupMerge
	KindDedupBreak
	KindSwapOut
	KindSwapIn
	KindTLBShootdown
	KindWatermarkCross
	KindSnapshotCreate
	KindSnapshotFork
	kindCount
)

var kindNames = [kindCount]string{
	"page_fault", "promote_region", "demote_region", "compaction_pass",
	"dedup_merge", "dedup_break", "swap_out", "swap_in",
	"tlb_shootdown", "watermark_cross", "snapshot_create", "snapshot_fork",
}

// String returns the stable wire name of the kind (used in every exporter).
func (k Kind) String() string {
	if k >= kindCount {
		return "unknown"
	}
	return kindNames[k]
}

// Origin identifies which execution context emitted an event: a process's
// fault path, the allocator core, or one of the background kernel daemons.
// Exporters give each origin its own track.
type Origin uint8

// Event origins.
const (
	OriginProc       Origin = iota // process context (fault/COW path)
	OriginMM                       // allocator core (watermarks)
	OriginKcompactd                // compaction passes
	OriginKswapd                   // reclaim / swap-out
	OriginKhugepaged               // promotion/demotion daemons
	OriginKsmd                     // dedup scanner
	OriginKbloatd                  // HawkEye bloat recovery
	originCount
)

var originNames = [originCount]string{
	"proc", "mm", "kcompactd", "kswapd", "khugepaged", "ksmd", "kbloatd",
}

// String returns the stable wire name of the origin.
func (o Origin) String() string {
	if o >= originCount {
		return "unknown"
	}
	return originNames[o]
}

// Event is one trace record. The struct is flat (no pointers, no interface
// payloads) so the ring buffer is a single preallocated slab and emitting an
// event is a struct store. Region and N are plain integers rather than mem/
// vmm types to keep this package importable from every simulation layer.
type Event struct {
	T      sim.Time // simulated emission time
	Cost   sim.Time // latency charged for the operation (0 for instants)
	Region int64    // 2 MB region index, -1 when not applicable
	N      int64    // size payload (pages, blocks) — kind-specific
	Aux    int64    // secondary payload — kind-specific
	PID    int32    // emitting process, -1 for daemons
	Kind   Kind
	Origin Origin
	Huge   bool
}

// Config configures a machine's Recorder.
type Config struct {
	// Capacity is the event ring size (default 65536). When more events are
	// emitted than fit, the oldest are overwritten; Recorder.Dropped reports
	// how many.
	Capacity int
	// SampleEvery, when > 0, makes the kernel attach a counter Sampler with
	// this period to the machine's engine, recording "vmstat/<name>" series
	// into the machine's sim.Recorder.
	SampleEvery sim.Time
	// SampleNames restricts the sampled counters (empty = all registered).
	SampleNames []string
}

// DefaultCapacity is the ring size used when Config.Capacity is zero.
const DefaultCapacity = 1 << 16

// Recorder collects events for one simulated machine. All methods are safe
// on a nil receiver (tracing disabled): they return immediately.
type Recorder struct {
	// Counters is the machine's counter/gauge registry, never nil on a
	// non-nil Recorder.
	Counters *Counters

	clock *sim.Clock
	ring  []Event
	next  int
	total uint64

	// flight, when non-nil, receives a copy of every emitted event for the
	// debug server's mid-run /events view. Set once at machine attach time,
	// before the machine runs; the ring itself gates recording on its arming
	// switch, so the Emit-side cost is one branch plus one atomic load.
	flight *Flight

	trackNames map[int32]string
	trackOrder []int32
}

// NewRecorder builds a Recorder stamping events from the given clock.
func NewRecorder(clock *sim.Clock, cfg Config) *Recorder {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		Counters:   NewCounters(clock),
		clock:      clock,
		ring:       make([]Event, capacity),
		trackNames: make(map[int32]string),
	}
}

// Counter returns the named counter handle, or nil when the Recorder is nil
// — the handle itself is nil-safe, so hook sites store it unconditionally.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.Counters.Counter(name)
}

// TrackName labels a process track for the Chrome exporter (call at spawn).
func (r *Recorder) TrackName(pid int32, name string) {
	if r == nil {
		return
	}
	if _, ok := r.trackNames[pid]; !ok {
		r.trackOrder = append(r.trackOrder, pid)
	}
	r.trackNames[pid] = name
}

// SetFlight tees every subsequent Emit into the given flight ring. Must be
// called before the machine starts running (the field is read, unguarded,
// from the simulation goroutine); the introspect registry calls it when it
// attaches a freshly built machine.
func (r *Recorder) SetFlight(f *Flight) {
	if r == nil {
		return
	}
	r.flight = f
}

// Emit appends an event, stamping it with the current simulated time.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	ev.T = r.clock.Now()
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	r.total++
	r.flight.Record(ev)
}

// Freeze ends the machine's run for this recorder: each gauge keeps the
// value it reads now, and the clock becomes a detached copy of the current
// time. Exports read the same afterwards, but the recorder no longer
// references the machine (gauge callbacks read its state, and the clock is
// a field of its engine), so a recorder kept for export does not keep the
// machine alive. Call it once the machine has stopped running. Nil-safe.
func (r *Recorder) Freeze() {
	if r == nil {
		return
	}
	clock := new(sim.Clock)
	clock.Advance(r.clock.Now())
	r.clock = clock
	r.Counters.freeze(clock)
}

// Total reports how many events were emitted over the run.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped reports how many events were overwritten by ring wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	if r.total <= uint64(len(r.ring)) {
		return 0
	}
	return r.total - uint64(len(r.ring))
}

// Events returns the retained events in emission (= chronological) order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if r.total <= uint64(len(r.ring)) {
		out := make([]Event, r.total)
		copy(out, r.ring[:r.total])
		return out
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// --- typed emitters --------------------------------------------------------

// PageFault records a resolved minor fault (huge = mapped as 2 MB).
func (r *Recorder) PageFault(pid int32, region int64, huge bool, cost sim.Time) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindPageFault, Origin: OriginProc, PID: pid, Region: region, Huge: huge, N: 1, Cost: cost})
}

// Promote records a region collapsed into a huge mapping; copied is the
// number of base pages migrated into the huge block (0 = in place).
func (r *Recorder) Promote(o Origin, pid int32, region, copied int64, cost sim.Time) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindPromoteRegion, Origin: o, PID: pid, Region: region, Huge: true, N: copied, Cost: cost})
}

// Demote records a huge mapping split back to base pages.
func (r *Recorder) Demote(o Origin, pid int32, region int64, cost sim.Time) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindDemoteRegion, Origin: o, PID: pid, Region: region, Cost: cost})
}

// Compaction records one compaction pass: huge blocks built (N) and frames
// migrated (Aux). Chunks scanned go to the compact_scanned counter instead.
func (r *Recorder) Compaction(built, moved int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindCompactionPass, Origin: OriginKcompactd, PID: -1, Region: -1, N: built, Aux: moved})
}

// DedupMerge records pages merged onto a canonical frame (KSM scan or
// HawkEye bloat recovery).
func (r *Recorder) DedupMerge(o Origin, pid int32, region, pages int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindDedupMerge, Origin: o, PID: pid, Region: region, N: pages})
}

// DedupBreak records a COW break of a merged/shared page.
func (r *Recorder) DedupBreak(pid int32, region int64, cost sim.Time) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindDedupBreak, Origin: OriginProc, PID: pid, Region: region, N: 1, Cost: cost})
}

// SwapOut records a reclaim batch paging n cold pages out to the device.
func (r *Recorder) SwapOut(pages int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindSwapOut, Origin: OriginKswapd, PID: -1, Region: -1, N: pages})
}

// SwapIn records a major fault bringing one page back from the device.
func (r *Recorder) SwapIn(pid int32, region int64, cost sim.Time) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindSwapIn, Origin: OriginProc, PID: pid, Region: region, N: 1, Cost: cost})
}

// TLBShootdown records a TLB invalidation (region = -1 for a full flush).
func (r *Recorder) TLBShootdown(pid int32, region int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindTLBShootdown, Origin: OriginProc, PID: pid, Region: region})
}

// WatermarkCross records the free-page level crossing a watermark.
// level: 0 = recovered above low, 1 = below low, 2 = below min.
func (r *Recorder) WatermarkCross(level int32, freePages int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindWatermarkCross, Origin: OriginMM, PID: -1, Region: -1, N: freePages, Aux: int64(level)})
}

// SnapshotCreate records a machine-state snapshot being captured: N is the
// allocated page count and Aux the free page count at capture time — both
// deterministic functions of simulation state, so traces stay byte-identical
// across runs and across the parallel runner's worker interleavings.
func (r *Recorder) SnapshotCreate(allocatedPages, freePages int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindSnapshotCreate, Origin: OriginMM, PID: -1, Region: -1, N: allocatedPages, Aux: freePages})
}

// SnapshotFork records a machine being forked from a snapshot (warm-up
// reuse), with the same deterministic payload as SnapshotCreate.
func (r *Recorder) SnapshotFork(allocatedPages, freePages int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindSnapshotFork, Origin: OriginMM, PID: -1, Region: -1, N: allocatedPages, Aux: freePages})
}
