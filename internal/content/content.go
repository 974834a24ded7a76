// Package content models page contents at the granularity the HawkEye
// algorithms need: whether a 4 KB frame is all-zero, how many bytes a
// scanner must read before hitting the first non-zero byte (Fig. 3 of the
// paper: mean ≈ 9.11 bytes over 56 workloads), and a content hash used by
// same-page merging (KSM).
//
// Real page bytes are never materialized; the store keeps a compact
// signature per physical frame. This preserves exactly the observables the
// paper's bloat-recovery and dedup threads depend on, at ~6 bytes per
// simulated frame.
package content

import (
	"hawkeye/internal/mem"
	"hawkeye/internal/mem/cow"
	"hawkeye/internal/sim"
	"hawkeye/internal/trace"
)

// ZeroHash is the content hash of an all-zero page.
const ZeroHash uint64 = 0

// Signature is the modelled content of one 4 KB frame.
type Signature struct {
	// Hash is 0 for all-zero pages; equal hashes mean byte-identical pages
	// (the simulator generates hashes so that logically-identical pages
	// collide intentionally, e.g. common pages across VM images).
	Hash uint64
	// FirstNonZero is the byte offset of the first non-zero byte; only
	// meaningful when Hash != 0. Capped at PageSize-1.
	FirstNonZero uint16
}

// Zero reports whether the page is all-zero.
func (s Signature) Zero() bool { return s.Hash == ZeroHash }

// Store tracks a Signature for every physical frame. The two signature
// fields live in parallel tables rather than one table of Signature:
// padding made the struct 16 bytes per frame, and the split packs the same
// state into 10 — less memory per machine and better scan locality. The
// tables are chunked copy-on-write (see internal/mem/cow): Seal freezes
// the store for O(1)-per-chunk forking, and a fork pays only for the
// signature chunks it overwrites.
type Store struct {
	hashes *cow.Table[uint64]
	fnz    *cow.Table[uint16]
	rng    *sim.Rand

	// MeanFirstNonZero parameterizes the generator for application writes
	// (paper Fig. 3 measures ≈ 9.11 across 56 workloads).
	MeanFirstNonZero float64

	// geo is the precomputed threshold table for the current
	// MeanFirstNonZero (geoMean), rebuilt lazily when the mean changes.
	geo     *sim.GeometricTable
	geoMean float64
}

// NewStore creates a content store for an allocator's frames. Fresh machine
// memory is all-zero — exactly the tables' background fill — so a new store
// allocates spines, not signature data.
func NewStore(totalFrames int64, rng *sim.Rand) *Store {
	return &Store{
		hashes:           cow.NewTable[uint64](int(totalFrames), ZeroHash),
		fnz:              cow.NewTable[uint16](int(totalFrames), 0),
		rng:              rng,
		MeanFirstNonZero: 9.11,
	}
}

// Seal freezes the signature tables so the store can be forked; the store
// itself stays fully usable, paying chunk copy-on-write for later writes.
func (s *Store) Seal() {
	s.hashes.Seal()
	s.fnz.Seal()
}

// Fork returns a copy-on-write copy of a sealed store: both signature
// tables share every chunk with s until one side writes it. The generator
// is cloned at its exact stream position, so the fork draws the same future
// first-non-zero offsets and hashes the original would. The precomputed
// geometric table is shared — it is immutable once built and fully
// determined by (geoMean, PageSize), so sharing it is safe and skips a
// rebuild.
func (s *Store) Fork() *Store {
	return &Store{
		hashes:           s.hashes.Fork(),
		fnz:              s.fnz.Fork(),
		rng:              s.rng.Clone(),
		MeanFirstNonZero: s.MeanFirstNonZero,
		geo:              s.geo,
		geoMean:          s.geoMean,
	}
}

// Release retires the signature tables, recycling their privately owned
// chunks into the table family's pool (see cow.Table.Release). The store is
// unusable afterwards; call only when its machine is being torn down.
func (s *Store) Release() {
	s.hashes.Release()
	s.fnz.Release()
}

// Get returns the signature of a frame.
func (s *Store) Get(f mem.FrameID) Signature {
	return Signature{Hash: s.hashes.Get(int(f)), FirstNonZero: s.fnz.Get(int(f))}
}

// SetZero records that a frame was cleared. Writing zero over zero is
// skipped so clearing already-zero frames (the common case right after
// machine construction) never materializes a pristine chunk.
func (s *Store) SetZero(f mem.FrameID) {
	if s.hashes.Get(int(f)) != ZeroHash {
		s.hashes.Set(int(f), ZeroHash)
	}
	if s.fnz.Get(int(f)) != 0 {
		s.fnz.Set(int(f), 0)
	}
}

// SetZeroRange records that n consecutive frames starting at f were
// cleared — SetZero in bulk, with the same zero-over-zero skip per frame,
// so clearing a run of already-zero frames touches no chunk at all.
func (s *Store) SetZeroRange(f mem.FrameID, n int) {
	for i := 0; i < n; i++ {
		s.SetZero(f + mem.FrameID(i))
	}
}

// firstNonZero draws a first-non-zero offset through the threshold table,
// which produces bit-identical values to Geometric(MeanFirstNonZero, ...)
// while skipping its per-draw multiply chain.
func (s *Store) firstNonZero() uint16 {
	if s.geo == nil || s.geoMean != s.MeanFirstNonZero {
		s.geo = sim.NewGeometricTable(s.MeanFirstNonZero, mem.PageSize-1)
		s.geoMean = s.MeanFirstNonZero
	}
	return uint16(s.geo.Draw(s.rng))
}

// Write records an application write of arbitrary (unique) data: the page
// becomes non-zero with a fresh hash and a generator-drawn first-non-zero
// offset.
func (s *Store) Write(f mem.FrameID) {
	h := s.rng.Uint64()
	if h == ZeroHash {
		h = 1
	}
	s.hashes.Set(int(f), h)
	s.fnz.Set(int(f), s.firstNonZero())
}

// WriteShared records a write of logically shared data (e.g. a page of a VM
// kernel image): pages written with the same key collide, so same-page
// merging can find them.
func (s *Store) WriteShared(f mem.FrameID, key uint64) {
	if key == ZeroHash {
		key = 1
	}
	s.hashes.Set(int(f), key)
	s.fnz.Set(int(f), s.firstNonZero())
}

// Copy duplicates src's content into dst (page migration, COW break).
// Identical values are not rewritten, so copying zero content between
// pristine chunks stays free under copy-on-write.
func (s *Store) Copy(dst, src mem.FrameID) {
	if h := s.hashes.Get(int(src)); s.hashes.Get(int(dst)) != h {
		s.hashes.Set(int(dst), h)
	}
	if o := s.fnz.Get(int(src)); s.fnz.Get(int(dst)) != o {
		s.fnz.Set(int(dst), o)
	}
}

// ScanResult reports the outcome of scanning one page for zero content.
type ScanResult struct {
	Zero         bool
	BytesScanned int
}

// Scan models the bloat-recovery scanner: it reads the page until the first
// non-zero byte (cheap for in-use pages, full 4096 bytes for zero pages).
func (s *Store) Scan(f mem.FrameID) ScanResult {
	if s.hashes.Get(int(f)) == ZeroHash {
		return ScanResult{Zero: true, BytesScanned: mem.PageSize}
	}
	return ScanResult{Zero: false, BytesScanned: int(s.fnz.Get(int(f))) + 1}
}

// HeapBytes estimates the heap footprint of the signature tables.
func (s *Store) HeapBytes() int64 {
	return s.hashes.HeapBytes() + s.fnz.HeapBytes()
}

// COWDirtyChunks returns the number of chunk materializations the store's
// tables have performed.
func (s *Store) COWDirtyChunks() int64 {
	return s.hashes.DirtyChunks() + s.fnz.DirtyChunks()
}

// SetCOWCounter mirrors chunk materializations in both tables into c
// (nil-safe; nil detaches).
func (s *Store) SetCOWCounter(c *trace.Counter) {
	s.hashes.SetDirtyCounter(c)
	s.fnz.SetDirtyCounter(c)
}

// ScanCost converts scanned bytes into simulated time. Calibrated at
// ~10 GB/s effective single-threaded scan bandwidth (memcmp-style loop).
func ScanCost(bytes int64) sim.Time {
	const bytesPerMicro = 10 * 1024 // 10 GB/s ≈ 10240 bytes/µs
	t := sim.Time(bytes / bytesPerMicro)
	if bytes%bytesPerMicro != 0 {
		t++
	}
	return t
}
