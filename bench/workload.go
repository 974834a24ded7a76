package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"hawkeye/internal/experiments"
)

// All three workloads run the configuration CI's smoke step runs: quick
// steady phases on a 1/50-scale machine. At the default 1/12 scale one pass
// of the paper's experiments alone takes minutes, which no time-boxed run
// can repeat.
const (
	scale = 0.02
	quick = true
)

// sweepPolicies are the four promoting policies; linux-4k never promotes, so
// its cells do not exercise the threshold knob.
var sweepPolicies = []string{"linux", "ingens", "hawkeye-pmu", "hawkeye-g"}

// workload is one fixed list of ops, derived from the run's seed.
type workload struct {
	name string
	ops  func(seed uint64) []op
}

// op is one unit of simulated work whose output the benchmark digests.
type op struct {
	id  string
	run func(o experiments.Options) (digest string, err error)
}

// workloads are chosen so each fast-path layer has one workload that
// exercises it and one that bypasses it; bench/README.md gives the reasons.
var workloads = []workload{
	// The product: every table and figure, the only fault-path, prezero,
	// KSM, virt and swap work, and the only real chunk-memo hits (fig5, fig6,
	// table5).
	{
		name: "paper-quick",
		ops:  paperOps,
	},
	// A large grid in steady state: 36 cells share each snapshot and trace.
	{
		name: "sweep-warm",
		ops: sweepOps(experiments.SweepSpec{
			Workload:   "graph500",
			Policies:   sweepPolicies,
			Thresholds: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
			Seeds:      5,
			FragKeep:   0.15,
		}),
	},
	// The opposite load: the first 25 cells each build, fragment and record
	// a machine, and 25 snapshots stay resident.
	{
		name: "sweep-cold",
		ops: sweepOps(experiments.SweepSpec{
			Workload:   "graph500",
			Policies:   sweepPolicies,
			Thresholds: []float64{0.6},
			Seeds:      25,
			FragKeep:   0.15,
		}),
	},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s, all)", name, strings.Join(names, ", "))
}

// baseOptions is the configuration every op runs with; the traced run adds
// Metrics, Trace and Traces on top.
func baseOptions(seed uint64) experiments.Options {
	return experiments.Options{Scale: scale, Seed: seed, Quick: quick}
}

func paperOps(seed uint64) []op {
	var ops []op
	for _, id := range experiments.IDs() {
		ops = append(ops, op{id: id, run: func(o experiments.Options) (string, error) {
			t, err := experiments.Run(id, o)
			if err != nil {
				return "", err
			}
			return tableDigest(t), nil
		}})
	}
	return ops
}

func sweepOps(spec experiments.SweepSpec) func(seed uint64) []op {
	return func(seed uint64) []op {
		var ops []op
		for _, c := range spec.Cells(seed) {
			ops = append(ops, op{id: cellID(c), run: func(o experiments.Options) (string, error) {
				row := experiments.RunSweepCell(o, spec, c)
				if row.Error != "" {
					return "", fmt.Errorf("cell %s: %s", cellID(c), row.Error)
				}
				return rowDigest(row), nil
			}})
		}
		return ops
	}
}

// cellID names a sweep cell <policy>/<threshold>/<seed>; it doubles as the
// cell's pprof label and golden key.
func cellID(c experiments.SweepCell) string {
	return c.Policy + "/" + formatFloat(c.Threshold) + "/" + strconv.FormatUint(c.Seed, 10)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// tableDigest hashes an experiment's simulated output: its header and rows.
// The title and notes are prose, so rewording them is not a change in output.
func tableDigest(t *experiments.Table) string {
	b, err := json.Marshal([]any{t.Header, t.Rows})
	if err != nil {
		panic(err) // string slices always marshal
	}
	return hexDigest(b)
}

// rowDigest hashes a sweep cell's simulated fields, formatted here rather
// than by the CSV writer so that a new report column does not change it.
// CowDirtyChunks is left out: it measures the host's copy-on-write layer,
// not the simulated machine.
func rowDigest(r experiments.SweepRow) string {
	fields := []string{
		r.Policy, formatFloat(r.Threshold), strconv.FormatUint(r.Seed, 10),
		formatFloat(r.RuntimeSeconds), formatFloat(r.Overhead),
		strconv.FormatInt(r.Faults, 10), strconv.FormatInt(r.HugeFaults, 10),
		strconv.FormatInt(r.Promotions, 10), strconv.FormatBool(r.OOM), r.Error,
	}
	return hexDigest([]byte(strings.Join(fields, "\x1f")))
}

func hexDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
