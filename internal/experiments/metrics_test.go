package experiments

import (
	"runtime"
	"testing"
	"time"

	"hawkeye/internal/sim"
	"hawkeye/internal/tlb"
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
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("machine built under Metrics was not collected after its run")
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Reading the collector last also keeps it live through the GCs above.
	if o.Metrics.EventsFired() == 0 {
		t.Fatal("Metrics lost the events of a machine that ran")
	}
}
