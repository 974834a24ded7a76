package main

import (
	"bytes"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// benchConfig is the part of BENCHMARK.json the A/B tool reads.
type benchConfig struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []e2eMetric `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// e2eMetric is one end-to-end metric of BENCHMARK.json with its bound.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readConfig(path string) (benchConfig, error) {
	var c benchConfig
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// abRecord is one line of the A/B log: one timed run of one side.
type abRecord struct {
	Time       string            `json:"time"`
	Side       string            `json:"side"`
	Bin        string            `json:"bin"`
	Commit     string            `json:"commit,omitempty"`
	GoVersion  string            `json:"go_version,omitempty"`
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Pair       int               `json:"pair"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
}

// abMain runs two built benchmark binaries in pairs, alternating which
// goes first, logs every run and prints a verdict per workload and
// end-to-end metric.
func abMain(args []string) error {
	fs := flag.NewFlagSet("ab", flag.ExitOnError)
	binA := fs.String("a", "", "benchmark binary of the parent (A)")
	binB := fs.String("b", "", "benchmark binary of the change (B)")
	pairs := fs.Int("pairs", 10, "number of A/B pairs")
	out := fs.String("out", filepath.Join(".bench_build", "ab.jsonl"), "append one JSON line per run to this file")
	seed := fs.Uint64("seed", 1, "workload seed for every run")
	cfgPath := fs.String("config", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *binA == "" || *binB == "" || *pairs < 1 {
		return errors.New("need -a, -b and -pairs >= 1")
	}
	cfg, err := readConfig(*cfgPath)
	if err != nil {
		return err
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return err
	}
	log, err := os.OpenFile(*out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer log.Close()

	sides := map[string]string{"a": *binA, "b": *binB}
	var recs []abRecord
	for p := 0; p < *pairs; p++ {
		order := []string{"a", "b"}
		if p%2 == 1 {
			order = []string{"b", "a"}
		}
		for _, w := range names {
			for _, side := range order {
				rec, err := abRun(sides[side], w, *seed, cfg.RunSeconds)
				if err != nil {
					return fmt.Errorf("pair %d %s side %s: %w", p, w, side, err)
				}
				rec.Side, rec.Pair = side, p
				b, err := json.Marshal(rec)
				if err != nil {
					return err
				}
				if _, err := log.Write(append(b, '\n')); err != nil {
					return err
				}
				recs = append(recs, rec)
				fmt.Fprintf(os.Stderr, "ab: pair %d/%d %s %s done\n", p+1, *pairs, w, side)
			}
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	printAB(os.Stdout, cfg, names, recs)
	return nil
}

// abRun runs one timed run of a benchmark binary and parses its result.
func abRun(bin, workload string, seed uint64, seconds int) (abRecord, error) {
	rec := abRecord{
		Time: time.Now().UTC().Format(time.RFC3339), Bin: bin, Workload: workload,
		Seed: seed, Seconds: seconds, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if info, err := buildinfo.ReadFile(bin); err == nil {
		rec.GoVersion = info.GoVersion
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rec.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				rec.Commit += "-dirty"
			}
		}
	}
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return rec, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	rec.Correct, rec.Attempted, rec.Failed, rec.Metrics = r.Correct, r.Attempted, r.Failed, r.Metrics
	return rec, nil
}

// comparison is one workload's and metric's A/B outcome.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, pairs    int // pairs where B read better than A; ties count for neither
	verdict        string
}

// compare applies the rule for claiming a gain on a noisy machine to paired
// runs a[i], b[i]:
//
//   - improved: B wins at least nine tenths of the pairs and the medians
//     differ, in B's favour, by more than A's interquartile range;
//   - unresolved: a side's relative interquartile range is wider than the
//     bound, unless every B run beats every A run (within bound) or every A
//     run beats every B run by more than the bound on the medians
//     (regressed);
//   - regressed: B's median is worse than A's by more than the bound;
//   - within bound otherwise.
func compare(a, b []float64, lowerIsBetter bool, bound float64) comparison {
	better := func(x, y float64) bool {
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	c := comparison{medA: median(a), medB: median(b), pairs: len(a)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	for i := range a {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	worse := (c.medB - c.medA) / c.medA
	if !lowerIsBetter {
		worse = -worse
	}
	spread := math.Max((c.q3A-c.q1A)/c.medA, (c.q3B-c.q1B)/c.medB)
	switch {
	case 10*c.wins >= 9*c.pairs && better(c.medB, c.medA) && math.Abs(c.medB-c.medA) > c.q3A-c.q1A:
		c.verdict = "improved"
	case spread > bound && allBetter(b, a, better):
		c.verdict = "within bound"
	case spread > bound && allBetter(a, b, better) && worse > bound:
		c.verdict = "regressed"
	case spread > bound:
		c.verdict = "unresolved"
	case worse > bound:
		c.verdict = "regressed"
	default:
		c.verdict = "within bound"
	}
	return c
}

// allBetter reports whether every x reads better than every y.
func allBetter(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// printAB prints one line per workload and end-to-end metric. On a workload
// where B failed ops that A did not, every verdict is "failed ops": a time
// does not count when the output it produced is wrong.
func printAB(w io.Writer, cfg benchConfig, names []string, recs []abRecord) {
	fmt.Fprintf(w, "%-12s %-12s %6s  %-30s %-30s %6s  %s\n", "workload", "metric", "bound", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, wl := range names {
		bFailed := failedOps(recs, wl)
		for _, m := range cfg.EndToEnd {
			a, b := pairedValues(recs, wl, m.Name)
			if len(a) == 0 {
				continue
			}
			c := compare(a, b, m.Better == "lower", m.Bound)
			if bFailed {
				c.verdict = "failed ops"
			}
			fmt.Fprintf(w, "%-12s %-12s %5.0f%%  %-30s %-30s %3d/%-3d %s\n", wl, m.Name, 100*m.Bound,
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.medA, c.q1A, c.q3A),
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.medB, c.q1B, c.q3B),
				c.wins, c.pairs, c.verdict)
		}
	}
}

// failedOps reports whether any B run of the workload was incorrect or
// failed more ops than the A run of its pair.
func failedOps(recs []abRecord, workload string) bool {
	aFailed := map[int]int{}
	for _, r := range recs {
		if r.Workload == workload && r.Side == "a" {
			aFailed[r.Pair] = r.Failed
		}
	}
	for _, r := range recs {
		if r.Workload == workload && r.Side == "b" && (!r.Correct || r.Failed > aFailed[r.Pair]) {
			return true
		}
	}
	return false
}

// pairedValues returns one metric's values for sides A and B, aligned by
// pair; a pair missing either side is skipped.
func pairedValues(recs []abRecord, workload, name string) (a, b []float64) {
	bySide := map[string]map[int]float64{"a": {}, "b": {}}
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			bySide[r.Side][r.Pair] = m.Value
		}
	}
	var ps []int
	for p := range bySide["a"] {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	for _, p := range ps {
		if vb, ok := bySide["b"][p]; ok {
			a = append(a, bySide["a"][p])
			b = append(b, vb)
		}
	}
	return a, b
}
