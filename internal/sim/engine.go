package sim

import (
	"container/heap"
	"errors"
	"fmt"
)

// Event is a scheduled callback. Fire is invoked with the engine so handlers
// can schedule follow-up events; returning an error aborts the run.
type Event interface {
	Fire(e *Engine) error
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(e *Engine) error

// Fire calls f.
func (f EventFunc) Fire(e *Engine) error { return f(e) }

type scheduled struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among events at the same instant
	event Event
	label string
}

type eventHeap []*scheduled

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*scheduled)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// ErrStopped is returned by Run when the engine was stopped explicitly.
var ErrStopped = errors.New("sim: engine stopped")

// EventCount is the tally of events an engine has executed. It is a
// separate object from the engine, so an observer that keeps it to read
// after the run does not keep the engine reachable — nor the queued
// closures that hold the machine the engine drives.
type EventCount struct{ n uint64 }

// Load reports the tally.
func (c *EventCount) Load() uint64 { return c.n }

// Engine is a single-threaded discrete-event executor.
type Engine struct {
	Clock Clock
	Rand  *Rand

	queue   eventHeap
	seq     uint64
	stopped bool
	fired   *EventCount
}

// NewEngine returns an engine with the given RNG seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{Rand: NewRand(seed), fired: new(EventCount)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.Clock.Now() }

// At schedules ev to fire at absolute time t.
func (e *Engine) At(t Time, label string, ev Event) {
	if t < e.Clock.Now() {
		panic(fmt.Sprintf("sim: scheduling %q in the past (%v < %v)", label, t, e.Clock.Now()))
	}
	e.seq++
	heap.Push(&e.queue, &scheduled{at: t, seq: e.seq, event: ev, label: label})
}

// After schedules ev to fire d after the current time.
func (e *Engine) After(d Time, label string, ev Event) { e.At(e.Clock.Now()+d, label, ev) }

// AfterFunc schedules fn to fire d after the current time.
func (e *Engine) AfterFunc(d Time, label string, fn func(e *Engine) error) {
	e.After(d, label, EventFunc(fn))
}

// Every schedules fn to run at a fixed period starting after one period.
// The repetition stops when fn returns false or errors, or the engine stops.
func (e *Engine) Every(period Time, label string, fn func(e *Engine) (bool, error)) {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	var tick func(*Engine) error
	tick = func(en *Engine) error {
		again, err := fn(en)
		if err != nil {
			return err
		}
		if again && !en.stopped {
			en.AfterFunc(period, label, tick)
		}
		return nil
	}
	e.AfterFunc(period, label, tick)
}

// Stop halts the run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Fired reports the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired.n }

// Events returns the engine's event tally, which keeps counting as the
// engine runs.
func (e *Engine) Events() *EventCount { return e.fired }

// Run executes events until the queue drains, an event errors, Stop is
// called, or the clock passes deadline (deadline 0 means no deadline).
func (e *Engine) Run(deadline Time) error {
	e.stopped = false
	for len(e.queue) > 0 {
		if e.stopped {
			return nil
		}
		next := e.queue[0]
		if deadline > 0 && next.at > deadline {
			e.Clock.Advance(deadline)
			return nil
		}
		heap.Pop(&e.queue)
		e.Clock.Advance(next.at)
		e.fired.n++
		if err := next.event.Fire(e); err != nil {
			return fmt.Errorf("sim: event %q at %v: %w", next.label, next.at, err)
		}
	}
	if deadline > 0 && e.Clock.Now() < deadline {
		e.Clock.Advance(deadline)
	}
	return nil
}
