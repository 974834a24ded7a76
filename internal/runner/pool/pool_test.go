package pool

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f at GOMAXPROCS procs and restores the caller's value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestResultsInIndexOrder: every job runs exactly once and writes its own
// slot, whichever goroutine ran it, for both entry points and several widths.
func TestResultsInIndexOrder(t *testing.T) {
	check := func(name string, n int, run func(n int, job func(int))) {
		t.Helper()
		calls := make([]atomic.Int32, n)
		out := make([]int, n)
		run(n, func(i int) {
			calls[i].Add(1)
			out[i] = i * i
		})
		for i := range out {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("%s: job %d ran %d times", name, i, c)
			}
			if out[i] != i*i {
				t.Errorf("%s: slot %d = %d, want %d", name, i, out[i], i*i)
			}
		}
	}
	withProcs(4, func() {
		for _, n := range []int{0, 1, 100} {
			check(fmt.Sprintf("Fan(%d)", n), n, Fan)
			for _, w := range []int{0, 1, 3, 8, n + 5} {
				check(fmt.Sprintf("Run(%d, %d workers)", n, w), n, func(n int, job func(int)) { Run(n, w, job) })
			}
		}
	})
}

// TestInlineAtOneProc: at GOMAXPROCS 1 Fan starts no goroutine, and so does
// Run with one worker — every job runs on the caller's goroutine, in order.
func TestInlineAtOneProc(t *testing.T) {
	withProcs(1, func() {
		for _, c := range []struct {
			name string
			run  func(n int, job func(int))
		}{
			{"Fan", Fan},
			{"Run(1 worker)", func(n int, job func(int)) { Run(n, 1, job) }},
		} {
			before := runtime.NumGoroutine()
			var order []int
			c.run(8, func(i int) {
				if g := runtime.NumGoroutine(); g != before {
					t.Errorf("%s: job %d sees %d goroutines, want the caller's %d", c.name, i, g, before)
				}
				order = append(order, i)
			})
			for i, got := range order {
				if got != i {
					t.Fatalf("%s: jobs ran in order %v, want 0..7", c.name, order)
				}
			}
			if len(order) != 8 {
				t.Fatalf("%s: %d jobs ran, want 8", c.name, len(order))
			}
		}
	})
}

// TestLowestIndexPanic: when several jobs panic, every job still runs, every
// helper exits, and the caller re-panics with the lowest index's value.
func TestLowestIndexPanic(t *testing.T) {
	const n = 40
	for _, c := range []struct {
		name string
		run  func(job func(int))
	}{
		{"Fan", func(job func(int)) { Fan(n, job) }},
		{"Run", func(job func(int)) { Run(n, 4, job) }},
	} {
		withProcs(4, func() {
			var ran atomic.Int32
			var got any
			func() {
				defer func() { got = recover() }()
				c.run(func(i int) {
					ran.Add(1)
					// Let later jobs reach their panics first.
					if i == 7 {
						time.Sleep(5 * time.Millisecond)
					}
					if i%10 == 7 {
						panic(i)
					}
				})
			}()
			if got != 7 {
				t.Errorf("%s: re-panicked with %v, want job 7's panic", c.name, got)
			}
			if r := ran.Load(); r != n {
				t.Errorf("%s: %d of %d jobs ran", c.name, r, n)
			}
			if b := busy.Load(); b != 0 {
				t.Errorf("%s: %d busy slots left after return", c.name, b)
			}
		})
	}
}

// TestFanUsesIdleCPUs: with CPUs to spare, Fan runs jobs side by side —
// two jobs that each wait for the other to start both finish.
func TestFanUsesIdleCPUs(t *testing.T) {
	withProcs(4, func() {
		var started atomic.Int32
		Fan(2, func(i int) {
			started.Add(1)
			deadline := time.Now().Add(10 * time.Second)
			for started.Load() < 2 {
				if time.Now().After(deadline) {
					t.Errorf("job %d: the other job never started alongside it", i)
					return
				}
				runtime.Gosched()
			}
		})
	})
}

// TestNestedWidthBounded: experiments fan out inside the runner's workers.
// However the two nest, no more than max(N, GOMAXPROCS) leaf jobs may run
// at once, N being the runner's worker count (0: no runner, the experiment
// called directly).
func TestNestedWidthBounded(t *testing.T) {
	const procs = 4
	for _, workers := range []int{0, 1, 2, procs, 6} {
		withProcs(procs, func() {
			var cur, peak atomic.Int64
			leaf := func(int) {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				time.Sleep(200 * time.Microsecond)
				cur.Add(-1)
			}
			// An experiment fans out over machines, one machine in four
			// fanning out again.
			experiment := func(int) {
				Fan(12, func(j int) {
					if j%4 == 0 {
						Fan(4, leaf)
						return
					}
					leaf(j)
				})
			}
			if workers == 0 {
				experiment(0)
			} else {
				Run(3*workers, workers, experiment)
			}
			limit := int64(max(workers, procs))
			if p := peak.Load(); p > limit {
				t.Errorf("%d workers at GOMAXPROCS %d: %d leaf jobs ran at once, want at most %d", workers, procs, p, limit)
			}
			if b := busy.Load(); b != 0 {
				t.Errorf("%d workers: %d busy slots left after return", workers, b)
			}
		})
	}
}
