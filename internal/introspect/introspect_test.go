package introspect

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hawkeye/internal/sim"
	"hawkeye/internal/trace"
)

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 || c.Name() != "" {
		t.Fatalf("nil counter: Value=%d Name=%q", c.Value(), c.Name())
	}
}

func TestRegistryCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("same name must return the same counter handle")
	}
	a.Add(2)
	b.Inc()
	if got := a.Value(); got != 3 {
		t.Fatalf("counter value = %d, want 3", got)
	}
}

// TestSnapshotDeterministicOrder holds the scrape-determinism contract: a
// snapshot is sorted by name and two scrapes of unchanged state are equal.
func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz").Add(1)
	r.Counter("aaa").Add(2)
	r.Gauge("mmm", func() float64 { return 7 })
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if len(s1) != len(s2) {
		t.Fatalf("scrape lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("scrapes differ at %d: %+v vs %+v", i, s1[i], s2[i])
		}
		if i > 0 && s1[i-1].Name >= s1[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", s1[i-1].Name, s1[i].Name)
		}
	}
}

// TestSnapshotCollisionGlobalsWin pins the merge rule: when an attached
// machine's per-run counter shares a name with a process-wide counter or
// gauge, the process-wide value is reported — never the sum — so a name
// used at both scopes is not double-counted.
func TestSnapshotCollisionGlobalsWin(t *testing.T) {
	r := NewRegistry()
	clock := &sim.Clock{}
	rec := trace.NewRecorder(clock, trace.Config{})
	rec.Counter("shared_counter").Add(100)
	rec.Counter("shared_gauge").Add(100)
	rec.Counter("only_attached").Add(5)
	r.Attach("m1", rec)

	r.Counter("shared_counter").Add(7)
	r.Gauge("shared_gauge", func() float64 { return 9 })

	got := map[string]float64{}
	for _, m := range r.Snapshot() {
		got[m.Name] = m.Value
	}
	if got["shared_counter"] != 7 {
		t.Errorf("shared_counter = %g, want global value 7", got["shared_counter"])
	}
	if got["shared_gauge"] != 9 {
		t.Errorf("shared_gauge = %g, want gauge value 9", got["shared_gauge"])
	}
	if got["only_attached"] != 5 {
		t.Errorf("only_attached = %g, want per-run value 5", got["only_attached"])
	}
}

func TestAttachSumsAndDetach(t *testing.T) {
	r := NewRegistry()
	clock := &sim.Clock{}
	rec1 := trace.NewRecorder(clock, trace.Config{})
	rec2 := trace.NewRecorder(clock, trace.Config{})
	rec1.Counter("faults").Add(3)
	rec2.Counter("faults").Add(4)
	detach1 := r.Attach("m1", rec1)
	r.Attach("m2", rec2)

	find := func(name string) float64 {
		for _, m := range r.Snapshot() {
			if m.Name == name {
				return m.Value
			}
		}
		return -1
	}
	if v := find("faults"); v != 7 {
		t.Fatalf("summed faults = %g, want 7", v)
	}
	detach1()
	if v := find("faults"); v != 4 {
		t.Fatalf("after detach faults = %g, want 4", v)
	}
}

func TestAttachEvictsOldest(t *testing.T) {
	r := NewRegistry()
	clock := &sim.Clock{}
	for i := 0; i < MaxAttached+5; i++ {
		rec := trace.NewRecorder(clock, trace.Config{})
		r.Attach(fmt.Sprintf("m%d", i), rec)
	}
	ms := r.Machines()
	if len(ms) != MaxAttached {
		t.Fatalf("attached machines = %d, want %d", len(ms), MaxAttached)
	}
	if ms[0].Label != "m5" {
		t.Fatalf("oldest retained = %s, want m5 (first five evicted)", ms[0].Label)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(1+i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	// Log2 buckets are coarse: accept the estimate within a factor of two of
	// the exact order statistic.
	check := func(q, exactNs float64) {
		got := s.Quantile(q)
		if got < exactNs/2 || got > exactNs*2 {
			t.Errorf("q%.0f = %.0fns, want within 2x of %.0fns", q*100, got, exactNs)
		}
	}
	check(0.50, 500e3)
	check(0.90, 900e3)
	check(0.99, 990e3)
	if mean := s.MeanNs(); mean < 400e3 || mean > 600e3 {
		t.Errorf("mean = %.0fns, want ~500000ns", mean)
	}
}

func TestHistogramDelta(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	before := h.Snapshot()
	h.Observe(2 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	d := h.Snapshot().Sub(before)
	if d.Count != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count)
	}
	if d.SumNs != int64(5*time.Millisecond) {
		t.Fatalf("delta sum = %d, want %d", d.SumNs, int64(5*time.Millisecond))
	}
}

func TestPublishProgressDisarmedIsNoop(t *testing.T) {
	r := NewRegistry()
	r.PublishProgress(Progress{Done: 1, Total: 2})
	if _, ok := r.hub.lastProgress(); ok {
		t.Fatal("disarmed registry must drop progress updates")
	}
}

func TestHubReplayAndCoalesce(t *testing.T) {
	var h hub
	h.publish(Progress{Done: 1, Total: 10})
	ch, cancel := h.subscribe()
	defer cancel()
	if p := <-ch; p.Done != 1 {
		t.Fatalf("replayed Done = %d, want 1", p.Done)
	}
	// A slow subscriber coalesces: after two publishes without a read, only
	// the freshest value is pending.
	h.publish(Progress{Done: 2, Total: 10})
	h.publish(Progress{Done: 3, Total: 10})
	if p := <-ch; p.Done != 3 {
		t.Fatalf("coalesced Done = %d, want 3", p.Done)
	}
}

// scrape GETs a path from the test server and returns the body.
func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return string(body)
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_events_total").Add(42)
	r.Gauge("test_pool_size", func() float64 { return 2.5 })
	r.Histogram("test_latency").Observe(3 * time.Millisecond)

	clock := &sim.Clock{}
	rec := trace.NewRecorder(clock, trace.Config{})
	r.Attach("machine-a", rec)

	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !r.Armed() {
		t.Fatal("serving must arm the registry")
	}
	rec.PageFault(1, 7, true, 13) // recorded into the flight ring while armed

	if got := scrape(t, srv.Addr(), "/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}

	metrics := scrape(t, srv.Addr(), "/metrics")
	for _, want := range []string{
		"# TYPE test_events_total counter\ntest_events_total 42\n",
		"# TYPE test_pool_size gauge\ntest_pool_size 2.5\n",
		"# TYPE test_latency_count counter\ntest_latency_count 1\n",
		"# TYPE introspect_attached_machines gauge\nintrospect_attached_machines 1\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, metrics)
		}
	}
	if !strings.HasSuffix(metrics, "# EOF\n") {
		t.Errorf("/metrics must end with # EOF, got tail %q", metrics[max(0, len(metrics)-20):])
	}

	vars := scrape(t, srv.Addr(), "/debug/vars")
	for _, want := range []string{`"test_events_total": 42`, `"armed": true`, `"test_latency"`} {
		if !strings.Contains(vars, want) {
			t.Errorf("/debug/vars missing %q in:\n%s", want, vars)
		}
	}

	events := scrape(t, srv.Addr(), "/events")
	for _, want := range []string{`"label":"machine-a"`, `"kind":"page_fault"`, `"region":7`} {
		if !strings.Contains(events, want) {
			t.Errorf("/events missing %q in:\n%s", want, events)
		}
	}

	if got := scrape(t, srv.Addr(), "/debug/pprof/"); !strings.Contains(got, "goroutine") {
		t.Error("/debug/pprof/ index did not render")
	}

	srv.Close()
	if r.Armed() {
		t.Fatal("Close must disarm the registry")
	}
}

// TestServerProgressSSE subscribes to /progress over a raw connection and
// checks both the replay-on-connect frame and a live frame published after
// the subscription.
func TestServerProgressSSE(t *testing.T) {
	r := NewRegistry()
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r.PublishProgress(Progress{Done: 1, Total: 4, Workers: 2})

	resp, err := http.Get("http://" + srv.Addr() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	frames := make(chan string, 4)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				frames <- strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	readFrame := func(wantDone int) {
		t.Helper()
		select {
		case f := <-frames:
			if !strings.Contains(f, fmt.Sprintf(`"done":%d`, wantDone)) {
				t.Fatalf("frame = %s, want done=%d", f, wantDone)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no SSE frame with done=%d within 5s", wantDone)
		}
	}
	readFrame(1) // replayed on connect
	r.PublishProgress(Progress{Done: 2, Total: 4, Workers: 2})
	readFrame(2) // live
}

// TestMetricsScrapeStableSchema holds the run-twice schema contract the CI
// smoke step greps for: two scrapes of the same registry expose the same
// metric names with the same types, whatever the values did in between.
func TestMetricsScrapeStableSchema(t *testing.T) {
	r := NewRegistry()
	r.Counter("alpha").Add(1)
	r.Gauge("beta", func() float64 { return 1 })
	r.Histogram("gamma").Observe(time.Millisecond)

	schema := func() string {
		var b strings.Builder
		r.writeMetrics(&b)
		var lines []string
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n")
	}
	s1 := schema()
	r.Counter("alpha").Add(99)
	r.Histogram("gamma").Observe(time.Second)
	if s2 := schema(); s1 != s2 {
		t.Fatalf("schema changed between scrapes:\n--- first\n%s\n--- second\n%s", s1, s2)
	}
}

// TestFlightRecordingGatedOnArming holds the off-path cost contract: events
// emitted while no server runs never reach the flight ring.
func TestFlightRecordingGatedOnArming(t *testing.T) {
	r := NewRegistry()
	clock := &sim.Clock{}
	rec := trace.NewRecorder(clock, trace.Config{})
	r.Attach("m", rec)
	rec.PageFault(1, 1, false, 0)
	if ms := r.Machines(); ms[0].Total != 0 {
		t.Fatalf("disarmed flight ring recorded %d events, want 0", ms[0].Total)
	}
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec.PageFault(1, 2, false, 0)
	if ms := r.Machines(); ms[0].Total != 1 {
		t.Fatalf("armed flight ring recorded %d events, want 1", ms[0].Total)
	}
}

// TestConcurrentScrapeRace hammers every read path while counters, gauges,
// attaches and publishes mutate the registry — the -race suite's coverage of
// the introspect layer itself.
func TestConcurrentScrapeRace(t *testing.T) {
	r := NewRegistry()
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		clock := &sim.Clock{}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := r.Counter(fmt.Sprintf("c%d", i%7))
			c.Inc()
			r.Histogram("h").Observe(time.Duration(i) * time.Microsecond)
			rec := trace.NewRecorder(clock, trace.Config{})
			rec.Counter("faults").Inc()
			detach := r.Attach("m", rec)
			rec.PageFault(0, int64(i), false, 0)
			r.PublishProgress(Progress{Done: i, Total: 1 << 20})
			detach()
		}
	}()
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Snapshot()
				var b strings.Builder
				r.writeMetrics(&b)
				r.Machines()
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}
