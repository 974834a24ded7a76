package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
	"unsafe"

	"hawkeye/internal/experiments"
	"hawkeye/internal/trace"
)

// opResult is one op's outcome, as a child reports it on one line of its
// standard output.
type opResult struct {
	ID      string `json:"id"`
	StartNS int64  `json:"start_ns"` // since the child started
	WallNS  int64  `json:"wall_ns"`
	// ThreadNS is the CPU time of the op's own thread: its wall time less
	// the time the thread waited while the host ran something else. The
	// collector's background work on other threads is not in it.
	ThreadNS int64  `json:"thread_ns"`
	Digest   string `json:"digest,omitempty"`
	Err      string `json:"err,omitempty"`
	// Counts sums the vmstat counters of every machine the op built, and
	// Events the discrete events they fired. Traced runs only.
	Counts map[string]float64 `json:"counts,omitempty"`
	Events uint64             `json:"events,omitempty"`
}

// childEnd is a child's last line.
type childEnd struct {
	Done       bool   `json:"done"`
	TotalAlloc uint64 `json:"total_alloc"`
	// Cal[i] is the calibration run after op i (timed runs only).
	Cal []calibration `json:"cal,omitempty"`
}

// traceCapacity keeps each traced machine's event ring small: the benchmark
// reads counters, not events.
const traceCapacity = 1024

// runOps executes ops one at a time and writes one opResult line per op to
// w, then a childEnd line. A timed run calibrates after each op, once the
// op's line is out. With traced set, each op runs under a pprof label naming
// it and collects its machines' counters instead. Op failures are reported,
// not returned; the error is for a broken output stream.
func runOps(w io.Writer, ops []op, seed uint64, traced bool, start time.Time) error {
	enc := json.NewEncoder(w)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	end := childEnd{Done: true}
	for _, o := range ops {
		res := runOp(o, seed, traced, start)
		if err := enc.Encode(res); err != nil {
			return fmt.Errorf("write op result: %w", err)
		}
		if !traced {
			end.Cal = append(end.Cal, calibrate(time.Duration(res.WallNS)))
		}
	}
	runtime.ReadMemStats(&ms)
	end.TotalAlloc = ms.TotalAlloc - alloc0
	if err := enc.Encode(end); err != nil {
		return fmt.Errorf("write end line: %w", err)
	}
	return nil
}

func runOp(o op, seed uint64, traced bool, start time.Time) opResult {
	opts := baseOptions(seed)
	if traced {
		opts.Metrics = experiments.NewMetrics()
		opts.Trace = &trace.Config{Capacity: traceCapacity}
		opts.Traces = experiments.NewTraceSet()
	}
	res := opResult{ID: o.id}
	c0 := threadCPU()
	t0 := time.Now()
	call := func(context.Context) {
		defer func() {
			if r := recover(); r != nil {
				res.Err = fmt.Sprintf("panic: %v", r)
			}
		}()
		d, err := o.run(opts)
		res.Digest = d
		if err != nil {
			res.Err = err.Error()
		}
	}
	if traced {
		pprof.Do(context.Background(), pprof.Labels("op", o.id), call)
	} else {
		call(context.Background())
	}
	res.StartNS = t0.Sub(start).Nanoseconds()
	res.WallNS = time.Since(t0).Nanoseconds()
	res.ThreadNS = threadCPU() - c0
	if traced {
		res.Counts = map[string]float64{}
		for _, e := range opts.Traces.Entries() {
			if e.Trace == nil {
				continue
			}
			for _, s := range e.Trace.Counters.Snapshot() {
				res.Counts[s.Name] += s.Value
			}
		}
		res.Events = opts.Metrics.EventsFired()
	}
	return res
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which the syscall
// package does not name.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time of the calling thread in nanoseconds, or 0
// if the kernel cannot tell. Unlike getrusage(RUSAGE_THREAD), which can lag
// by a scheduler tick, this clock includes the time since the last tick.
func threadCPU() int64 {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return ts.Nano()
}

// childMain is the entry point of a child process: it runs the first n ops
// of the workload (all of them when n <= 0) and streams their results.
func childMain(w workload, seed uint64, n int, profile string) error {
	// Ops run one at a time on this goroutine; keeping it on one thread
	// makes threadCPU the ops' own CPU time.
	runtime.LockOSThread()
	start := time.Now()
	ops := w.ops(seed)
	if n > 0 && n < len(ops) {
		ops = ops[:n]
	}
	if profile == "" {
		return runOps(os.Stdout, ops, seed, false, start)
	}
	f, err := os.Create(profile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("start cpu profile: %w", err)
	}
	err = runOps(os.Stdout, ops, seed, true, start)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("write cpu profile: %w", cerr)
	}
	return err
}
