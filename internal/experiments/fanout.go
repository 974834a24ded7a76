package experiments

import "hawkeye/internal/runner/pool"

// fanOut runs job(o, i) for every i in [0, n) and returns the results in
// index order. The jobs run concurrently on whatever CPUs pool.Fan finds
// idle (inline at GOMAXPROCS 1), and fanOut owns the rules that keep the
// output byte-identical to running them one after another:
//
//   - each job writes only its own result slot;
//   - the error returned is the lowest-index job's, the first one a serial
//     loop would have stopped at;
//   - each job observes its machines into a private TraceSet, and the sets
//     are merged into o.Traces in job order, up to that failing job, so
//     labels, "#n" suffixes and entry order are the serial run's;
//   - o.Metrics is shared: its sums do not depend on order.
//
// A job must share nothing with the others and return plain values — no
// *kernel.Kernel, no *kernel.Proc — so every machine is garbage once its job
// returns, however many jobs are still running.
func fanOut[R any](o Options, n int, job func(o Options, i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	errs := make([]error, n)
	var sets []*TraceSet
	if o.Traces != nil {
		sets = make([]*TraceSet, n)
	}
	pool.Fan(n, func(i int) {
		jo := o
		if sets != nil {
			sets[i] = NewTraceSet()
			jo.Traces = sets[i]
		}
		out[i], errs[i] = job(jo, i)
	})
	for i, err := range errs {
		if sets != nil {
			o.Traces.merge(sets[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fanOutReplay is fanOut for jobs whose machines come from runConcurrent
// and so share the process-wide access-trace cache. On a traced run it runs
// them one after another instead: a traced machine's trace_replay_hits and
// trace_cache_bytes counters record which machine captured each chunk of a
// shared trace first, which is the order the jobs ran in.
func fanOutReplay[R any](o Options, n int, job func(o Options, i int) (R, error)) ([]R, error) {
	if o.Trace == nil || o.NoTraceCache {
		return fanOut(o, n, job)
	}
	out := make([]R, n)
	for i := range out {
		r, err := job(o, i)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
