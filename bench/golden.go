package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
)

// goldenDir holds one file per seed, seed-<n>.json, mapping workload → op
// id → sha256 of the op's simulated output. The files are compiled into the
// binary, so a benchmark binary built from one commit checks its own
// expectations wherever it runs.
const goldenDir = "golden"

//go:embed golden
var goldenFS embed.FS

// goldenFile is the on-disk shape of one seed's digests.
type goldenFile struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

// goldens returns the committed digests of seed's ops in workload, or nil
// when the seed has no golden file: its ops are then unverified.
func goldens(seed uint64, workload string) (map[string]string, error) {
	b, err := goldenFS.ReadFile(goldenPath(goldenDir, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden seed %d: %w", seed, err)
	}
	return g.Workloads[workload], nil
}

func goldenPath(dir string, seed uint64) string {
	return path.Join(dir, fmt.Sprintf("seed-%d.json", seed))
}

// verdict classes one op against its expected digest.
type verdict int

const (
	verified verdict = iota
	unverified
	failed
)

// checker grades ops: against the committed golden when there is one, and
// always against every earlier result for the same op id in this run, so a
// seed without goldens still catches nondeterminism across processes.
type checker struct {
	golden map[string]string
	seen   map[string]string
	counts [3]int
	// failures lists the first few failed ops, for the human report.
	failures []string
}

func newChecker(golden map[string]string) *checker {
	return &checker{golden: golden, seen: map[string]string{}}
}

func (c *checker) check(r opResult) verdict {
	v := c.grade(r)
	c.counts[v]++
	if v == failed && len(c.failures) < 5 {
		msg := r.Err
		if msg == "" {
			msg = "digest " + r.Digest + " differs"
		}
		c.failures = append(c.failures, r.ID+": "+msg)
	}
	return v
}

func (c *checker) grade(r opResult) verdict {
	if r.Err != "" || r.Digest == "" {
		return failed
	}
	if prev, ok := c.seen[r.ID]; ok && prev != r.Digest {
		return failed
	}
	c.seen[r.ID] = r.Digest
	want, ok := c.golden[r.ID]
	switch {
	case !ok:
		return unverified
	case want != r.Digest:
		return failed
	}
	return verified
}

func (c *checker) attempted() int {
	return c.counts[verified] + c.counts[unverified] + c.counts[failed]
}

// writeGolden runs one pass of every workload of seed, each in its own
// child process as in a timed run, and writes the digests to dir. Use it
// only for a change that alters simulated output on purpose.
func writeGolden(dir string, seed uint64) error {
	g := goldenFile{Seed: seed, Workloads: map[string]map[string]string{}}
	for _, w := range workloads {
		cr, err := spawn(w, seed, 0, "")
		if err != nil {
			return err
		}
		digests := map[string]string{}
		for _, o := range cr.ops {
			if o.Err != "" {
				return fmt.Errorf("%s %s: %s", w.name, o.ID, o.Err)
			}
			digests[o.ID] = o.Digest
		}
		g.Workloads[w.name] = digests
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, seed), append(b, '\n'), 0o644)
}
