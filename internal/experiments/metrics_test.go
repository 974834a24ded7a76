package experiments

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"hawkeye/internal/sim"
	"hawkeye/internal/tlb"
	"hawkeye/internal/trace"
)

// TestMetricsReleaseMachines checks that a Metrics collector does not keep
// the machines it counts alive: a machine built under Metrics is collected
// once it has run and been dropped, and its events still count.
//
// The finalizer sits on the machine's TLB, which only the machine
// references. It cannot sit on the *kernel.Kernel itself: the engine's
// queued daemon closures point back at the kernel, and the runtime never
// finalizes an object that is reachable from itself.
func TestMetricsReleaseMachines(t *testing.T) {
	o := Options{Quick: true, Scale: 0.02, Seed: 1, Metrics: NewMetrics()}.withDefaults()
	collected := make(chan struct{})
	func() {
		k := newKernel(o, policyLinux())
		runtime.SetFinalizer(k.TLB, func(*tlb.TLB) { close(collected) })
		if err := k.Run(2 * sim.Second); err != nil {
			t.Fatal(err)
		}
	}()
	waitCollected(t, collected, "machine built under Metrics")
	// Reading the collector last also keeps it live through the GCs above.
	if o.Metrics.EventsFired() == 0 {
		t.Fatal("Metrics lost the events of a machine that ran")
	}
}

// TestTraceReleasesMachines checks that tracing does not keep a finished
// machine alive either: a traced machine that a fanOut job observes into a
// TraceSet and the introspect registry is collected once the job returns,
// and the set still writes its vmstat afterwards, gauge values included,
// byte for byte as the job saw it. The "registry alone" case runs without a
// TraceSet. The finalizer sits on the TLB, as in TestMetricsReleaseMachines.
func TestTraceReleasesMachines(t *testing.T) {
	for _, tc := range []struct {
		name   string
		traces *TraceSet
	}{
		{"TraceSet and registry", NewTraceSet()},
		{"registry alone", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{Quick: true, Scale: 0.02, Seed: 1, Trace: &trace.Config{}, Traces: tc.traces}.withDefaults()
			collected := make(chan struct{})
			var want bytes.Buffer
			_, err := fanOut(o, 1, func(o Options, _ int) (struct{}, error) {
				k := newKernel(o, policyLinux())
				runtime.SetFinalizer(k.TLB, func(*tlb.TLB) { close(collected) })
				if err := k.Run(2 * sim.Second); err != nil {
					return struct{}{}, err
				}
				return struct{}{}, k.Trace.WriteVmstat(&want)
			})
			if err != nil {
				t.Fatal(err)
			}
			waitCollected(t, collected, "traced machine")
			if tc.traces == nil {
				return
			}
			entries := tc.traces.Entries()
			if len(entries) != 1 {
				t.Fatalf("TraceSet holds %d entries, want 1", len(entries))
			}
			var got bytes.Buffer
			if err := entries[0].Trace.WriteVmstat(&got); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("vmstat after the machine was collected:\n%s\nwant, as the job wrote it:\n%s", got.String(), want.String())
			}
		})
	}
}

// waitCollected runs the collector until collected is closed, failing the
// test if what has not been collected within 10 s.
func waitCollected(t *testing.T, collected <-chan struct{}, what string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatalf("%s was not collected after its run", what)
		case <-time.After(10 * time.Millisecond):
		}
	}
}
