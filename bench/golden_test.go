package main

import "testing"

func TestCheckerGradesOps(t *testing.T) {
	c := newChecker(map[string]string{"fig5": "aa", "fig9": "bb"})
	steps := []struct {
		r    opResult
		want verdict
	}{
		{opResult{ID: "fig5", Digest: "aa"}, verified},
		{opResult{ID: "fig9", Digest: "b0"}, failed},              // corrupted digest
		{opResult{ID: "table1", Digest: "cc"}, unverified},        // no golden
		{opResult{ID: "table1", Digest: "cd"}, failed},            // differs from an earlier run
		{opResult{ID: "fig5", Digest: "aa", Err: "boom"}, failed}, // an error fails even with a digest
		{opResult{ID: "table3"}, failed},                          // no digest at all
	}
	for i, s := range steps {
		if got := c.check(s.r); got != s.want {
			t.Errorf("step %d (%s): verdict %d, want %d", i, s.r.ID, got, s.want)
		}
	}
	r := newResult(c, endToEnd)
	if r.Attempted != 6 || r.Failed != 4 || r.Correct {
		t.Errorf("result attempted %d failed %d correct %v; want 6, 4, false", r.Attempted, r.Failed, r.Correct)
	}
}

func TestGoldensCoverEveryOp(t *testing.T) {
	for _, w := range workloads {
		g, err := goldens(1, w.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range w.ops(1) {
			if _, ok := g[o.id]; !ok {
				t.Errorf("%s: no seed-1 golden for %s", w.name, o.id)
			}
		}
	}
	if g, err := goldens(1<<40, "paper-quick"); g != nil || err != nil {
		t.Errorf("a seed without a golden file gave %v, %v; want nil, nil", g, err)
	}
}
