// Package pool is the simulator's one fan-out helper: it runs n independent
// jobs, indexed 0..n-1, on a few goroutines and returns when all of them have
// finished. Jobs must not share simulation state; each writes its own result
// slot, so what the caller renders afterwards does not depend on which
// goroutine ran which job or in what order they finished.
//
// Two entry points share one loop. Run gives a fixed number of workers (the
// experiment runner's and the sweep's -parallel pools). Fan sizes itself from
// GOMAXPROCS and from how many jobs the whole process is already running, so
// a fan-out nested inside a Run worker borrows idle CPUs instead of
// multiplying the worker count: with Run at N workers, at most
// max(N, GOMAXPROCS) jobs run at once.
//
// The package lives under internal/runner because that is where the
// determinism analyzer allows goroutines; simulation packages (experiments
// among them) call Fan instead of starting their own.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// busy counts the goroutines executing jobs process-wide: every Run worker,
// the caller of Run included, and every Fan helper, each until it finds no
// job left to claim. A Fan caller is counted only when busy is 0 on entry:
// then no pool is running, so it cannot already be counted as the Run
// worker or Fan helper it runs on.
var busy atomic.Int64

// Run calls job(i) for every i in [0, n) on min(workers, n) goroutines, the
// caller's among them (workers < 1 counts as 1), so Run(n, 1, job) runs
// every job inline. Jobs are handed out in index order.
func Run(n, workers int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	busy.Add(int64(workers))
	f := &fanout{n: n, job: job}
	for w := 1; w < workers; w++ {
		f.helper()
	}
	f.work()
	busy.Add(-1)
	f.finish()
}

// Fan calls job(i) for every i in [0, n), running jobs on helper goroutines
// as well as the caller's while CPUs are idle: a helper starts only while
// fewer than GOMAXPROCS goroutines run jobs process-wide. At GOMAXPROCS 1
// every job runs inline on the caller and no goroutine starts. Jobs are
// handed out in index order.
func Fan(n int, job func(i int)) {
	counted := busy.CompareAndSwap(0, 1)
	limit := int64(runtime.GOMAXPROCS(0))
	f := &fanout{n: n, job: job}
	for {
		i := f.claim()
		if i >= n {
			break
		}
		// Grow while this job leaves work for others: the check repeats at
		// every claim, so a fan-out that began with the CPUs taken picks up
		// one that another pool has since released.
		if i+1 < n && reserve(limit) {
			f.helper()
		}
		f.run(i)
	}
	if counted {
		busy.Add(-1)
	}
	f.finish()
}

// reserve takes one busy slot if fewer than limit are taken.
func reserve(limit int64) bool {
	for {
		b := busy.Load()
		if b >= limit {
			return false
		}
		if busy.CompareAndSwap(b, b+1) {
			return true
		}
	}
}

// fanout is one call's shared state: the next unclaimed index, the helpers
// to wait for, and the lowest-index panic seen.
type fanout struct {
	n    int
	job  func(int)
	next atomic.Int64
	wg   sync.WaitGroup

	mu        sync.Mutex
	panicked  bool
	panicIdx  int
	panicWith any
}

// claim hands out the next job index (>= n once none is left).
func (f *fanout) claim() int { return int(f.next.Add(1) - 1) }

// work runs jobs until none is left.
func (f *fanout) work() {
	for i := f.claim(); i < f.n; i = f.claim() {
		f.run(i)
	}
}

// helper starts a worker goroutine on a busy slot already taken for it, and
// gives the slot back once no job is left to claim.
func (f *fanout) helper() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.work()
		busy.Add(-1)
	}()
}

// run executes job i, recording a panic instead of letting it unwind the
// worker: every other job still runs, and finish re-raises the panic of the
// lowest index on the caller.
func (f *fanout) run(i int) {
	defer func() {
		if r := recover(); r != nil {
			f.mu.Lock()
			if !f.panicked || i < f.panicIdx {
				f.panicked, f.panicIdx, f.panicWith = true, i, r
			}
			f.mu.Unlock()
		}
	}()
	f.job(i)
}

// finish waits for every helper to exit, then re-panics with the
// lowest-index job's panic, if any job panicked.
func (f *fanout) finish() {
	f.wg.Wait()
	if f.panicked {
		panic(f.panicWith)
	}
}
