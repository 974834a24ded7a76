// Package sim provides the deterministic discrete-event core used by the
// HawkEye memory-management simulator: a virtual clock, an event queue,
// seeded random number generation and time-series metric recording.
//
// All simulated time is expressed in Time (microseconds). The engine is
// single-threaded and deterministic: two runs with the same seed and the
// same event program produce identical results.
package sim

import "fmt"

// Time is a simulated timestamp in microseconds since the start of the run.
type Time int64

// Common durations, in simulated microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * 1000
	Minute      Time = 60 * Second
)

// String renders the time in a human-friendly unit.
func (t Time) String() string {
	switch {
	case t >= Minute:
		return fmt.Sprintf("%.2fmin", float64(t)/float64(Minute))
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%dµs", int64(t))
	}
}

// Seconds reports the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Clock tracks current simulated time. It only moves forward.
type Clock struct {
	now Time
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock to t. Moving backwards panics: that is always an
// engine bug, never a recoverable runtime condition.
func (c *Clock) Advance(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moved backwards: %v -> %v", c.now, t))
	}
	c.now = t
}
