package cache

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blob is a cached value whose size the test sets, and may change after Get
// returns, as a trace being captured grows.
type blob struct{ n atomic.Int64 }

func (b *blob) Bytes() int64 { return b.n.Load() }

func newBlob(n int64) *blob {
	b := &blob{}
	b.n.Store(n)
	return b
}

// keys lists the cache's entries in sorted order.
func keys(c *Cache[string, *blob]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestEviction scripts sequential uses of one cache and checks which entries
// it keeps, how many it evicted, and the bytes it charges. get builds a
// value of the given size on a miss.
func TestEviction(t *testing.T) {
	type getFunc func(key string, size int64) (v *blob, evicted int64)
	for _, tc := range []struct {
		name          string
		run           func(t *testing.T, c *Cache[string, *blob], get getFunc)
		wantKeys      []string
		wantEvictions int64
		wantBytes     int64
	}{
		{
			name: "the victim is the oldest built entry",
			run: func(t *testing.T, c *Cache[string, *blob], get getFunc) {
				c.SetBudget(250)
				get("a", 100)
				get("b", 100)
				if _, n := get("c", 100); n != 1 {
					t.Errorf("third get evicted %d, want 1", n)
				}
			},
			wantKeys: []string{"b", "c"}, wantEvictions: 1, wantBytes: 200,
		},
		{
			name: "a get makes its entry the newest",
			run: func(t *testing.T, c *Cache[string, *blob], get getFunc) {
				c.SetBudget(250)
				get("a", 100)
				get("b", 100)
				get("a", 100) // hit: b is now the least recently used
				get("c", 100)
			},
			wantKeys: []string{"a", "c"}, wantEvictions: 1, wantBytes: 200,
		},
		{
			name: "the returned entry survives a budget smaller than itself",
			run: func(t *testing.T, c *Cache[string, *blob], get getFunc) {
				c.SetBudget(50)
				if _, n := get("a", 100); n != 0 {
					t.Errorf("get of an oversized entry evicted %d, want 0", n)
				}
				if got := keys(c); !reflect.DeepEqual(got, []string{"a"}) {
					t.Errorf("entries after the oversized get = %v, want [a]", got)
				}
				get("b", 100)
			},
			wantKeys: []string{"b"}, wantEvictions: 1, wantBytes: 100,
		},
		{
			name: "lowering the budget evicts at once",
			run: func(t *testing.T, c *Cache[string, *blob], get getFunc) {
				get("a", 100)
				get("b", 100)
				get("c", 100)
				c.SetBudget(150)
			},
			wantKeys: []string{"c"}, wantEvictions: 2, wantBytes: 100,
		},
		{
			name: "zero restores an unlimited budget",
			run: func(t *testing.T, c *Cache[string, *blob], get getFunc) {
				c.SetBudget(150)
				c.SetBudget(0)
				get("a", 100)
				get("b", 100)
			},
			wantKeys: []string{"a", "b"}, wantEvictions: 0, wantBytes: 200,
		},
		{
			name: "Reset drops entries and counts but keeps the budget",
			run: func(t *testing.T, c *Cache[string, *blob], get getFunc) {
				c.SetBudget(150)
				get("a", 100)
				get("b", 100)
				first, _ := get("b", 100)
				c.Reset()
				if again, _ := get("b", 100); again == first {
					t.Error("Reset did not drop the cached value")
				}
				get("c", 100)
			},
			wantKeys: []string{"c"}, wantEvictions: 1, wantBytes: 100,
		},
		{
			name: "a value that grows after Get is charged at the next Get",
			run: func(t *testing.T, c *Cache[string, *blob], get getFunc) {
				c.SetBudget(250)
				a, _ := get("a", 100)
				a.n.Store(300)
				if got := keys(c); !reflect.DeepEqual(got, []string{"a"}) {
					t.Errorf("growth alone changed the entries to %v", got)
				}
				if _, n := get("b", 10); n != 1 {
					t.Errorf("get after growth evicted %d, want 1", n)
				}
			},
			wantKeys: []string{"b"}, wantEvictions: 1, wantBytes: 10,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, *blob]("cache_test")
			get := func(key string, size int64) (*blob, int64) {
				return c.Get(key, func() *blob { return newBlob(size) })
			}
			tc.run(t, c, get)
			if got := keys(c); !reflect.DeepEqual(got, tc.wantKeys) {
				t.Errorf("entries = %v, want %v", got, tc.wantKeys)
			}
			st := c.Stats()
			if st.Entries != len(tc.wantKeys) || st.Evictions != tc.wantEvictions || st.ResidentBytes != tc.wantBytes {
				t.Errorf("stats = %+v, want %d entries, %d evictions, %d bytes",
					st, len(tc.wantKeys), tc.wantEvictions, tc.wantBytes)
			}
		})
	}
}

// TestConcurrentGetsBuildOnce holds the single-flight contract: goroutines
// asking for one key while its build runs all wait for that build and share
// its value. Run it under -race.
func TestConcurrentGetsBuildOnce(t *testing.T) {
	c := New[string, *blob]("cache_test")
	var builds atomic.Int64
	release := make(chan struct{})
	build := func() *blob {
		builds.Add(1)
		<-release
		return newBlob(100)
	}
	const workers = 8
	got := make([]*blob, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = c.Get("k", build)
		}(i)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i := 1; i < workers; i++ {
		if got[i] != got[0] {
			t.Fatalf("worker %d got a different value for the same key", i)
		}
	}
}

// TestBuildingEntryIsNeverEvicted: an entry whose build is still running is
// counted but not charged, and no budget evicts it — the Get waiting for it
// must find it in the cache when the build returns.
func TestBuildingEntryIsNeverEvicted(t *testing.T) {
	c := New[string, *blob]("cache_test")
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan *blob)
	go func() {
		v, _ := c.Get("slow", func() *blob {
			close(started)
			<-release
			return newBlob(100)
		})
		done <- v
	}()
	<-started

	c.SetBudget(1)
	c.Get("a", func() *blob { return newBlob(100) }) // over budget, but in use
	c.SetBudget(1)                                   // a is evictable now; slow is not
	if got := keys(c); !reflect.DeepEqual(got, []string{"slow"}) {
		t.Fatalf("entries while slow builds = %v, want [slow]", got)
	}
	if st := c.Stats(); st.Entries != 1 || st.ResidentBytes != 0 || st.Evictions != 1 {
		t.Fatalf("stats while slow builds = %+v, want 1 entry, 0 bytes, 1 eviction", st)
	}

	close(release)
	v := <-done
	if again, _ := c.Get("slow", func() *blob { return newBlob(100) }); again != v {
		t.Fatal("the built entry was not kept")
	}
}

// TestSelfUnequalKeyIsNotStored: a key that never equals itself (a NaN)
// can be neither found nor deleted once it is in a map. Get must build its
// value without storing it: otherwise every Get adds an unreachable entry,
// and a budget below two of them makes the evict loop pick one it cannot
// delete and spin with the lock held — hence the timeout.
func TestSelfUnequalKeyIsNotStored(t *testing.T) {
	c := New[float64, *blob]("cache_test")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			v, n := c.Get(math.NaN(), func() *blob { return newBlob(10) })
			if v == nil || v.Bytes() != 10 || n != 0 {
				t.Errorf("get %d of a NaN key = (%v, %d evicted), want a built value and 0", i, v, n)
			}
		}
		c.SetBudget(15)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SetBudget over NaN-keyed entries did not return")
	}
	if st := c.Stats(); st.Entries != 0 || st.ResidentBytes != 0 || st.Evictions != 0 {
		t.Fatalf("stats after NaN-keyed gets = %+v, want an empty cache", st)
	}
}
