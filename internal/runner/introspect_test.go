package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hawkeye/internal/experiments"
	"hawkeye/internal/introspect"
	"hawkeye/internal/workload"
)

// introspectSweepSpec is the small grid the perturbation tests run: big
// enough for the parallel pool to overlap cells, small enough to run twice.
func introspectSweepSpec() (experiments.SweepSpec, experiments.Options) {
	spec := experiments.SweepSpec{
		Workload:   "graph500",
		Policies:   []string{"linux", "hawkeye-pmu"},
		Thresholds: []float64{0.3, 0.9},
		Seeds:      2,
		FragKeep:   0.15,
	}
	opts := experiments.Options{Scale: 0.02, Quick: true, Seed: 1}
	return spec, opts
}

func renderSweepCSV(t *testing.T, rep *SweepReport) string {
	t.Helper()
	for _, row := range rep.Rows {
		if row.Error != "" {
			t.Fatalf("cell %s/%g/seed=%d: %s", row.Policy, row.Threshold, row.Seed, row.Error)
		}
	}
	var csv bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return csv.String()
}

// parseScrape pulls the metric lines out of one /metrics body, failing on a
// structurally broken exposition (a # TYPE header without its sample line —
// a partial counter set would look exactly like that).
func parseScrape(t *testing.T, body string) map[string]float64 {
	t.Helper()
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("scrape truncated: missing # EOF terminator:\n%s", body)
	}
	vals := make(map[string]float64)
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], name+" ") {
			t.Fatalf("scrape missing sample for %s after %q", name, line)
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(lines[i+1], name+" "), 64)
		if err != nil {
			t.Fatalf("scrape: bad value line %q: %v", lines[i+1], err)
		}
		vals[name] = v
	}
	return vals
}

// TestSweepScrapeDoesNotPerturb is the zero-perturbation gate: a parallel
// sweep runs with a live debug server being scraped as fast as the client
// can go (/metrics and /progress both), and its CSV must be byte-identical
// to an unscraped sweep of the same grid. Every scrape is also checked for
// internal consistency: complete counter sets (TYPE line + sample line, #
// EOF terminator) and sweep_cells_done never exceeding sweep_cells_total.
// Run under -race in CI, this also makes any unsynchronized read between
// scrape and simulation goroutines a hard failure.
func TestSweepScrapeDoesNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep grid twice; skipped in -short")
	}
	spec, opts := introspectSweepSpec()
	workload.TraceCache.Reset()
	defer workload.TraceCache.Reset()

	baseline := renderSweepCSV(t, RunSweep(spec, opts, 2))

	srv, err := introspect.Default().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrapes := 0
	wg.Add(2)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 5 * time.Second}
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get("http://" + srv.Addr() + "/metrics")
			if err != nil {
				continue // server tear-down race at test end
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				continue
			}
			vals := parseScrape(t, string(body))
			done, total := vals["sweep_cells_done"], vals["sweep_cells_total"]
			if _, ok := vals["sweep_cells_total"]; !ok {
				t.Error("scrape missing sweep_cells_total")
				return
			}
			if total > 0 && done > totalEver(total) {
				t.Errorf("sweep_cells_done %g exceeds plausible total %g", done, total)
				return
			}
			scrapes++
		}
	}()
	go func() {
		defer wg.Done()
		// Hold one SSE subscription open across the run, counting frames.
		req, _ := http.NewRequest("GET", "http://"+srv.Addr()+"/progress", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		go func() { <-stop; resp.Body.Close() }()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
	}()

	scraped := renderSweepCSV(t, RunSweep(spec, opts, 2))
	close(stop)
	wg.Wait()

	if scrapes == 0 {
		t.Fatal("scrape loop never completed a scrape during the sweep")
	}
	if scraped != baseline {
		t.Fatalf("scraped sweep CSV differs from unscraped baseline:\n--- baseline\n%s\n--- scraped\n%s", baseline, scraped)
	}
}

// totalEver allows for sweep_cells_done being a cumulative process-wide
// counter while sweep_cells_total is the current grid's size: after k full
// grids of n cells, done may legitimately read k*n. The invariant that must
// hold within one scrape is that done is a multiple-bounded count, never
// garbage (a torn read would virtually never land on a small multiple).
func totalEver(total float64) float64 { return total * 64 }

// TestSweepPublishesProgress checks the runner's SSE feed end to end: an
// armed registry sees monotone done counts ending at the grid size, with
// the worker count and a sane elapsed time stamped on each frame.
func TestSweepPublishesProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep grid; skipped in -short")
	}
	spec, opts := introspectSweepSpec()
	workload.TraceCache.Reset()
	defer workload.TraceCache.Reset()

	reg := introspect.Default()
	srv, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var mu sync.Mutex
	var frames []introspect.Progress
	done := make(chan struct{})
	resp, err := http.Get("http://" + srv.Addr() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		defer close(done)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var p introspect.Progress
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
				t.Errorf("bad SSE frame %q: %v", line, err)
				return
			}
			mu.Lock()
			frames = append(frames, p)
			complete := p.Done == p.Total
			mu.Unlock()
			if complete {
				return
			}
		}
	}()

	rep := RunSweep(spec, opts, 2)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream never delivered a done==total frame")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(frames) == 0 {
		t.Fatal("no progress frames received")
	}
	last := frames[len(frames)-1]
	if last.Done != len(rep.Rows) || last.Total != len(rep.Rows) {
		t.Fatalf("final frame %+v, want done=total=%d", last, len(rep.Rows))
	}
	prev := -1
	for _, p := range frames {
		if p.Done <= prev {
			t.Fatalf("progress not monotone: %d after %d", p.Done, prev)
		}
		prev = p.Done
		if p.Workers != 2 {
			t.Errorf("frame workers = %d, want 2", p.Workers)
		}
		if p.ElapsedSeconds < 0 {
			t.Errorf("frame elapsed = %g, want >= 0", p.ElapsedSeconds)
		}
	}
	if rep.CellLatency.Count != int64(len(rep.Rows)) {
		t.Fatalf("CellLatency.Count = %d, want %d", rep.CellLatency.Count, len(rep.Rows))
	}
	if rep.CellLatency.P50Ns <= 0 || rep.CellLatency.P99Ns < rep.CellLatency.P50Ns {
		t.Fatalf("implausible latency summary: %+v", rep.CellLatency)
	}
}

// TestSweepReportOmitsCellLatency pins the report-byte contract: the
// latency summary is stderr-only telemetry, so the JSON document must not
// grow a field for it (sweep replay equivalence byte-compares reports).
func TestSweepReportOmitsCellLatency(t *testing.T) {
	rep := &SweepReport{Schema: "hawkeye-sweep/v1", CellLatency: LatencySummary{Count: 9, P50Ns: 1}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "CellLatency") || strings.Contains(string(data), "p50") {
		t.Fatalf("CellLatency leaked into the JSON report:\n%s", data)
	}
}
