package main

import (
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	tight := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.08, 9.92}
	wide := []float64{10, 13, 8, 12, 9, 14, 7, 11, 10, 12}
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same", tight, tight, true, 0.1, "within bound"},
		{"faster", tight, scaled(tight, 0.8), true, 0.1, "improved"},
		{"slower", tight, scaled(tight, 1.3), true, 0.1, "regressed"},
		{"slower within bound", tight, scaled(tight, 1.05), true, 0.1, "within bound"},
		{"noisy", wide, scaled(wide, 1.02), true, 0.1, "unresolved"},
		{"noisy but every run worse", tight, []float64{20, 26, 16, 24, 18, 28, 14, 22, 20, 24}, true, 0.1, "regressed"},
		{"noisy but every run better", []float64{20, 26, 16, 24, 18, 28, 15, 22, 20, 24}, []float64{9, 10, 11, 12, 13, 10, 9, 14, 11, 10}, true, 0.1, "improved"},
		// Every B run beats every A run, but by less than A's spread: no
		// gain can be claimed, yet it is no regression either.
		{"beats a wide parent", []float64{10, 30, 10, 30, 10, 30, 10, 30, 10, 30}, scaled(tight, 0.99), true, 0.1, "within bound"},
		{"higher is better", tight, scaled(tight, 1.3), false, 0.1, "improved"},
		{"higher is better, lower", tight, scaled(tight, 0.7), false, 0.1, "regressed"},
	} {
		c := compare(tc.a, tc.b, tc.lowerBetter, tc.bound)
		if c.verdict != tc.want {
			t.Errorf("%s: verdict %q (wins %d/%d, medians %.3g vs %.3g), want %q",
				tc.name, c.verdict, c.wins, c.pairs, c.medA, c.medB, tc.want)
		}
	}
}

func TestPrintABRefusesFailedOps(t *testing.T) {
	cfg := benchConfig{EndToEnd: []e2eMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	run := func(side string, pair int, wall float64, failed int) abRecord {
		return abRecord{Side: side, Pair: pair, Workload: "w", Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]metric{"wall_s": {Value: wall, Unit: "s"}}}
	}
	for _, tc := range []struct {
		name    string
		bFailed int
		want    string
	}{
		{"b correct and faster", 0, "improved"},
		{"b faster but fails an op", 1, "failed ops"},
	} {
		var recs []abRecord
		for p := range 10 {
			recs = append(recs, run("a", p, 10+0.01*float64(p), 0), run("b", p, 5+0.01*float64(p), 0))
		}
		recs[len(recs)-1].Failed, recs[len(recs)-1].Correct = tc.bFailed, tc.bFailed == 0
		var out strings.Builder
		printAB(&out, cfg, []string{"w"}, recs)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 2 || !strings.HasSuffix(lines[1], tc.want) {
			t.Errorf("%s: printAB wrote\n%s\nwant one row ending %q", tc.name, out.String(), tc.want)
		}
	}
}
