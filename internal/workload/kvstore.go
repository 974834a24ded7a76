package workload

import (
	"hawkeye/internal/kernel"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/vmm"
)

// kvKey is one live key-value pair: its first page and length in pages.
type kvKey struct {
	start vmm.VPN
	pages int32
}

// KVOp is one operation in a KVStore scenario script.
type KVOp interface{ isKVOp() }

// KVInsert adds Keys values of ValuePages pages each. PageCost is the
// application work per written page (parse + memcpy + index update); it
// sets the simulated duration of the phase.
type KVInsert struct {
	Keys       int64
	ValuePages mem.Pages
	PageCost   sim.Time
}

func (KVInsert) isKVOp() {}

// KVDelete removes a random Frac of live keys, returning their pages to
// the kernel via madvise(DONTNEED) — the Fig. 1 P2 phase that leaves the
// address space sparse. Cluster > 1 deletes keys in contiguous runs of
// that length, modelling slab/arena locality: some regions empty out
// completely while others stay dense (Table 7's utilization spread).
type KVDelete struct {
	Frac    float64
	Cluster int
}

func (KVDelete) isKVOp() {}

// KVSleep idles (the "after some time gap" between P2 and P3).
type KVSleep struct {
	For sim.Time
}

func (KVSleep) isKVOp() {}

// KVServe answers queries over the live keys for a duration, or until
// Work seconds of useful serving work accumulate (Work takes precedence
// when > 0).
type KVServe struct {
	For  sim.Time
	Work float64
}

func (KVServe) isKVOp() {}

// KVStore is a Redis/MongoDB-like server program: a scripted sequence of
// insert / delete / serve phases over an append-only virtual address space
// (freed space of one value-size class is not reused by another, as with
// size-class allocators; new values always extend the heap).
type KVStore struct {
	Ops []KVOp
	// QueryProfile characterizes the serving phase's address stream.
	QueryProfile kernel.AccessProfile
	// BaseThroughput is the zero-overhead serving rate (ops/s) used to
	// convert work efficiency into reported throughput.
	BaseThroughput float64

	// RecordRSS names a recorder series for an RSS timeline (empty = off).
	RecordRSS string

	keys    []kvKey
	nextVPN vmm.VPN

	opIdx     int
	insertPos int64 // keys inserted in the current KVInsert
	deleted   bool
	sleepLeft sim.Time
	sleepInit bool
	serveEl   sim.Time
	serveWork float64
	serveInit bool

	// ServeEfficiency is the mean work efficiency of the last KVServe
	// phase (useful work per wall second); throughput = BaseThroughput ×
	// ServeEfficiency.
	ServeEfficiency float64
}

var _ kernel.Program = (*KVStore)(nil)

// LiveKeys reports the number of live keys.
func (kv *KVStore) LiveKeys() int { return len(kv.keys) }

// HeapPages reports the high-water VA footprint in pages.
//
//lint:allow unitsafety heap starts at VPN 0, so the high-water address IS the page count
func (kv *KVStore) HeapPages() mem.Pages { return mem.Pages(kv.nextVPN) }

// Throughput reports BaseThroughput scaled by the last serve efficiency.
func (kv *KVStore) Throughput() float64 { return kv.BaseThroughput * kv.ServeEfficiency }

// Step implements kernel.Program.
func (kv *KVStore) Step(k *kernel.Kernel, p *kernel.Proc) (sim.Time, bool, error) {
	defer func() {
		if kv.RecordRSS != "" {
			k.Rec.Record(kv.RecordRSS, float64(p.VP.RSSBytes()))
		}
	}()
	budget := k.Cfg.Quantum
	var consumed sim.Time
	for consumed < budget {
		if kv.opIdx >= len(kv.Ops) {
			return consumed, true, nil
		}
		c, done, err := kv.runOp(k, p, kv.Ops[kv.opIdx], budget-consumed)
		consumed += c
		if err != nil {
			return consumed, false, err
		}
		if !done {
			return consumed, false, nil
		}
		kv.opIdx++
		kv.resetOpState()
	}
	return consumed, false, nil
}

func (kv *KVStore) resetOpState() {
	kv.insertPos = 0
	kv.deleted = false
	kv.sleepInit = false
	kv.serveInit = false
}

func (kv *KVStore) runOp(k *kernel.Kernel, p *kernel.Proc, op KVOp, budget sim.Time) (sim.Time, bool, error) {
	switch op := op.(type) {
	case KVInsert:
		return kv.runInsert(k, p, op, budget)
	case KVDelete:
		return kv.runDelete(k, p, op)
	case KVSleep:
		if !kv.sleepInit {
			kv.sleepInit = true
			kv.sleepLeft = op.For
		}
		if kv.sleepLeft <= budget {
			c := kv.sleepLeft
			kv.sleepLeft = 0
			return c, true, nil
		}
		kv.sleepLeft -= budget
		return budget, false, nil
	case KVServe:
		return kv.runServe(k, p, op, budget)
	default:
		return 0, true, nil
	}
}

func (kv *KVStore) runInsert(k *kernel.Kernel, p *kernel.Proc, op KVInsert, budget sim.Time) (sim.Time, bool, error) {
	pageCost := op.PageCost
	if pageCost <= 0 {
		pageCost = 2
	}
	var consumed sim.Time
	for kv.insertPos < op.Keys && consumed < budget {
		start := kv.nextVPN
		for pg := mem.Pages(0); pg < op.ValuePages; pg++ {
			c, err := k.Touch(p, start.Advance(pg), true)
			if err != nil {
				return consumed, false, err
			}
			consumed += c + pageCost
		}
		kv.nextVPN = kv.nextVPN.Advance(op.ValuePages)
		kv.keys = append(kv.keys, kvKey{start: start, pages: int32(op.ValuePages)})
		kv.insertPos++
	}
	return consumed, kv.insertPos >= op.Keys, nil
}

func (kv *KVStore) runDelete(k *kernel.Kernel, p *kernel.Proc, op KVDelete) (sim.Time, bool, error) {
	if kv.deleted {
		return 0, true, nil
	}
	kv.deleted = true
	n := int(float64(len(kv.keys)) * op.Frac)
	var consumed sim.Time
	kill := make([]bool, len(kv.keys))
	cluster := op.Cluster
	if cluster < 1 {
		cluster = 1
	}
	if cluster == 1 {
		perm := p.Rand().Perm(len(kv.keys))
		for i := 0; i < n; i++ {
			kill[perm[i]] = true
		}
	} else {
		// Clustered deletion: random runs of `cluster` consecutive keys.
		// killed counts distinct keys, as the loop bounds require.
		killed := 0
		for killed < n && len(kv.keys) > 0 {
			start := p.Rand().Intn(len(kv.keys))
			for j := start; j < start+cluster && j < len(kv.keys) && killed < n; j++ {
				if !kill[j] {
					kill[j] = true
					killed++
				}
			}
		}
	}
	survivors := kv.keys[:0]
	for i, key := range kv.keys {
		if kill[i] {
			consumed += k.Madvise(p, key.start, mem.Pages(key.pages))
		} else {
			survivors = append(survivors, key)
		}
	}
	kv.keys = survivors
	return consumed, true, nil
}

// SampleRun implements kernel.AccessSampler for the serving phase: each
// query touches a uniformly chosen page of a uniformly chosen live key, and
// one query in ten writes it.
func (kv *KVStore) SampleRun(r *sim.Rand, buf []kernel.AccessRun, n int) []kernel.AccessRun {
	for range n {
		var vpn vmm.VPN
		write := false
		if len(kv.keys) > 0 {
			key := kv.keys[r.Intn(len(kv.keys))]
			vpn = key.start
			if key.pages > 1 {
				vpn += vmm.VPN(r.Intn(int(key.pages)))
			}
			write = r.Float64() < 0.1
		}
		buf = kernel.AppendAccess(buf, vpn, write)
	}
	return buf
}

// Profile implements kernel.AccessSampler: the serving phase's stream is
// characterized by QueryProfile.
func (kv *KVStore) Profile() kernel.AccessProfile { return kv.QueryProfile }

func (kv *KVStore) runServe(k *kernel.Kernel, p *kernel.Proc, op KVServe, budget sim.Time) (sim.Time, bool, error) {
	if !kv.serveInit {
		kv.serveInit = true
		kv.serveEl = 0
		kv.serveWork = 0
	}
	res, err := k.SteadyRun(p, budget, kv)
	if err != nil {
		return res.Consumed, false, err
	}
	kv.serveEl += res.Consumed
	kv.serveWork += res.WorkSeconds
	if kv.serveEl > 0 {
		kv.ServeEfficiency = kv.serveWork / kv.serveEl.Seconds()
	}
	done := false
	if op.Work > 0 {
		done = kv.serveWork >= op.Work
	} else {
		done = kv.serveEl >= op.For
	}
	return res.Consumed, done, nil
}

// LivePages reports the total pages of live values (the useful data set).
func (kv *KVStore) LivePages() mem.Pages {
	var n mem.Pages
	for _, key := range kv.keys {
		n += mem.Pages(key.pages)
	}
	return n
}
