// Package cache is the byte-budgeted cache behind the simulator's two
// process-wide caches: internal/snapshot's fragmented-machine images and
// internal/workload's recorded access streams. Each holds one Cache.
//
//   - Single flight. The first Get of a key builds its value through a
//     per-entry sync.Once; concurrent Gets of the same key wait for that
//     build and share its result, so a warm-up shared by many parallel
//     workers runs once.
//   - Byte budget. A budget caps the summed Bytes of built values (0, the
//     default, is unlimited). Over budget, the least recently used entry is
//     evicted — the one with the smallest use stamp; stamps are unique, so
//     map iteration order cannot change the victim — until the cache fits
//     or nothing evictable is left. The entry a Get is returning and
//     entries still building are never evicted. Bytes is read afresh
//     whenever the cache budgets, so a value that grows after Get returns
//     (a trace being captured) is charged at the next Get.
//   - Observability. New registers the cache's <name>_entries,
//     <name>_bytes and <name>_evict gauges on the introspect registry.
//
// Evicting an entry drops only the cache's reference: callers already
// holding the value keep using it, and the next Get of the key rebuilds it.
// With a finite budget, which Gets hit and what they evict depends on how
// parallel workers interleave; what the simulation computes from the values
// does not, because a rebuilt value is the same value.
package cache

import (
	"sync"

	"hawkeye/internal/introspect"
)

// Cache maps keys to values built on first use, under a byte budget. The
// zero value is not usable; build with New. The cache calls Bytes with its
// lock held, so Bytes must not call back into the cache.
type Cache[K comparable, V interface{ Bytes() int64 }] struct {
	mu        sync.Mutex
	entries   map[K]*entry[V]
	budget    int64 // cap on the built values' summed Bytes; 0 = unlimited
	seq       int64 // last use stamp handed out
	evictions int64
}

type entry[V any] struct {
	once sync.Once
	// val, built and lastUse are guarded by the cache's mu. built is false
	// while the value is being built; lastUse is the entry's most recent
	// build or Get, as a cache-wide sequence number.
	val     V
	built   bool
	lastUse int64
}

// New returns an empty cache with no budget and registers its gauges under
// name on the introspect registry.
func New[K comparable, V interface{ Bytes() int64 }](name string) *Cache[K, V] {
	c := &Cache[K, V]{entries: make(map[K]*entry[V])}
	introspect.RegisterCache(name, c.Stats)
	return c
}

// Get returns the value for key, calling build to make it if the cache has
// none, and evicts to fit the budget. build runs outside the cache's lock,
// once per key however many goroutines ask. A key that is not equal to
// itself (one holding a NaN) could never be found or deleted once stored,
// so its value is built for this call alone and not kept.
func (c *Cache[K, V]) Get(key K, build func() V) V {
	if key != key {
		return build()
	}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &entry[V]{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		v := build()
		c.mu.Lock()
		c.seq++
		e.val, e.built, e.lastUse = v, true, c.seq
		c.mu.Unlock()
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	e.lastUse = c.seq
	// The entry may have been evicted, or the cache reset, since it was
	// built; its value is still returned, but only entries in the map are
	// budgeted.
	if c.entries[key] == e {
		c.evictLocked(e)
	}
	return e.val
}

// evictLocked evicts least-recently-used built entries, never keep, until
// the cache fits its budget. Caller holds mu.
func (c *Cache[K, V]) evictLocked(keep *entry[V]) {
	if c.budget <= 0 {
		return
	}
	for c.residentLocked() > c.budget {
		var victimKey K
		var victim *entry[V]
		for k, e := range c.entries {
			if e == keep || !e.built {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				//lint:allow determinism victim has the unique smallest lastUse
				victim, victimKey = e, k
			}
		}
		if victim == nil {
			break // nothing evictable: the budget is below the entry in use
		}
		delete(c.entries, victimKey)
		c.evictions++
	}
}

// residentLocked sums the Bytes of built entries. Caller holds mu.
func (c *Cache[K, V]) residentLocked() int64 {
	var total int64
	for _, e := range c.entries {
		if e.built {
			//lint:allow determinism order-insensitive integer sum
			total += e.val.Bytes()
		}
	}
	return total
}

// SetBudget caps the summed Bytes of built values; 0 restores the default,
// unlimited. Lowering the budget evicts at once.
func (c *Cache[K, V]) SetBudget(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = n
	c.evictLocked(nil)
}

// Stats reports the cache's entries (those still building included), the
// summed Bytes of its built values and its evictions since New or Reset.
func (c *Cache[K, V]) Stats() introspect.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return introspect.CacheStats{
		Entries:       len(c.entries),
		ResidentBytes: c.residentLocked(),
		Evictions:     c.evictions,
	}
}

// Reset drops every entry and zeroes the use stamps and the eviction count,
// for test isolation and to release memory. The budget is configuration,
// not cache state, and survives.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[K]*entry[V])
	c.seq = 0
	c.evictions = 0
}
