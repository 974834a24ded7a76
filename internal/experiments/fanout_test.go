package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"hawkeye/internal/kernel"
	"hawkeye/internal/sim"
	"hawkeye/internal/trace"
)

// TestFanOutMatchesSerial holds fanOut to the loop it replaces: at
// GOMAXPROCS 1 and at 4, the results, the error returned and the merged
// TraceSet — labels with their "#n" suffixes, entry order, and each
// machine's JSONL and vmstat — must equal those of running the jobs one
// after another into one shared TraceSet, stopping at the first error.
func TestFanOutMatchesSerial(t *testing.T) {
	pols := []func() kernel.Policy{policyNone, policyLinux, policyNone, policyIngens90, policyLinux, policyNone, policyNone, policyLinux}
	jobs := func(failAt int) func(o Options, i int) (sim.Time, error) {
		return func(o Options, i int) (sim.Time, error) {
			k := newKernel(o, pols[i]())
			if err := k.Run(sim.Time(i+1) * sim.Second); err != nil {
				return 0, err
			}
			if i >= failAt && (i-failAt)%2 == 0 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return k.Now(), nil
		}
	}
	opts := func() Options {
		return Options{Quick: true, Scale: 0.01, Seed: 5, Trace: &trace.Config{}, Traces: NewTraceSet()}.withDefaults()
	}
	render := func(times []sim.Time, err error, ts *TraceSet) string {
		var b bytes.Buffer
		fmt.Fprintf(&b, "results %v\nerror %v\n", times, err)
		for _, e := range ts.Entries() {
			b.WriteString("## " + e.Label + "\n")
			if err := e.Trace.WriteJSONL(&b); err != nil {
				t.Fatal(err)
			}
			if err := e.Trace.WriteVmstat(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	for _, failAt := range []int{len(pols), 3} {
		job := jobs(failAt)
		o := opts()
		var want []sim.Time
		var wantErr error
		for i := range pols {
			r, err := job(o, i)
			if err != nil {
				want, wantErr = nil, err
				break
			}
			want = append(want, r)
		}
		serial := render(want, wantErr, o.Traces)
		for _, procs := range []int{1, 4} {
			o := opts()
			var got []sim.Time
			var err error
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got, err = fanOut(o, len(pols), job)
			}()
			if fanned := render(got, err, o.Traces); fanned != serial {
				t.Errorf("failAt %d, GOMAXPROCS %d: fanOut differs from the serial loop\nserial:\n%.2000s\nfanOut:\n%.2000s", failAt, procs, serial, fanned)
			}
		}
	}
}
