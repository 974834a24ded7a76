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
//   - on a traced run each job observes its machines into a private
//     TraceSet, frozen when the job returns, and the sets are merged into
//     o.Traces in job order, up to that failing job, so labels, "#n"
//     suffixes and entry order are the serial run's;
//   - o.Metrics is shared: its sums do not depend on order.
//
// A job must share nothing with the others and return plain values — no
// *kernel.Kernel, no *kernel.Proc — so every machine is garbage once its job
// returns, however many jobs are still running: the freeze cuts the
// references its trace recorders would otherwise keep.
func fanOut[R any](o Options, n int, job func(o Options, i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	errs := make([]error, n)
	var sets []*TraceSet
	if o.Trace != nil {
		sets = make([]*TraceSet, n)
	}
	pool.Fan(n, func(i int) {
		jo := o
		if sets != nil {
			sets[i] = NewTraceSet()
			jo.Traces = sets[i]
		}
		out[i], errs[i] = job(jo, i)
		if sets != nil {
			sets[i].freeze()
		}
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
