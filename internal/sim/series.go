package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Point is a single time-series sample.
type Point struct {
	T Time
	V float64
}

// Series records a named metric over simulated time.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample at time t.
func (s *Series) Add(t Time, v float64) { s.Points = append(s.Points, Point{t, v}) }

// Last returns the most recent value, or 0 if empty.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].V
}

// Max returns the maximum recorded value, or 0 if empty.
func (s *Series) Max() float64 {
	m := 0.0
	for i, p := range s.Points {
		if i == 0 || p.V > m {
			m = p.V
		}
	}
	return m
}

// Min returns the minimum recorded value, or 0 if empty.
func (s *Series) Min() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].V
	for _, p := range s.Points {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// Mean returns the arithmetic mean of recorded values, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// At returns the value in effect at time t (the last sample with T <= t).
func (s *Series) At(t Time) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].V
}

// Recorder collects named series for one simulation run.
type Recorder struct {
	clock  *Clock
	series map[string]*Series
	order  []string
}

// NewRecorder returns a Recorder bound to the clock.
func NewRecorder(clock *Clock) *Recorder {
	return &Recorder{clock: clock, series: make(map[string]*Series)}
}

// Freeze detaches the recorder from its clock, keeping a copy of the current
// time: the recorder keeps its series but no longer references the engine
// the clock belongs to (trace.Recorder.Freeze). Samples recorded afterwards
// are stamped with the frozen time.
func (r *Recorder) Freeze() {
	r.clock = &Clock{now: r.clock.now}
}

// Series returns (creating if needed) the series with the given name.
func (r *Recorder) Series(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return s
}

// Record appends a sample at the current simulated time.
func (r *Recorder) Record(name string, v float64) {
	r.Series(name).Add(r.clock.Now(), v)
}

// Names returns series names in creation order.
func (r *Recorder) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Dump renders all series compactly; intended for debugging and CLI output.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, name := range r.order {
		s := r.series[name]
		fmt.Fprintf(&b, "%s: n=%d last=%.3f min=%.3f max=%.3f mean=%.3f\n",
			name, len(s.Points), s.Last(), s.Min(), s.Max(), s.Mean())
	}
	return b.String()
}
