//go:build unix

package runner

import (
	"syscall"
	"time"
)

// processCPUTime returns the process's cumulative user+system CPU time, or
// -1 when unavailable. The benchmark gate prefers CPU time over wall time:
// `go test ./...` runs package test binaries concurrently, and on a loaded
// machine wall-clock measurements of a single-threaded benchmark loop are
// dominated by scheduling noise while its CPU time stays stable.
//
// Process CPU time is the loop's own only when the runtime has one P. With
// more Ps, the collector's mark workers run on the other Ps and are charged
// here too, so the harness holds GOMAXPROCS at referenceProcs, the
// reference box's setting.
func processCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
