package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hawkeye/internal/core"
	"hawkeye/internal/kernel"
	"hawkeye/internal/policy"
	"hawkeye/internal/workload"
)

// Policy sweeps: the grid runs behind `hawkeye-bench -sweep`. A sweep
// evaluates one workload under every (policy, threshold, seed) combination
// of a SweepSpec, each cell on its own machine fragmented identically — the
// shape of question the paper's sensitivity discussion asks ("how does the
// promotion aggressiveness knob trade runtime against promotions?") but
// asked of the whole grid at once. Every cell forks its machine from the
// per-(config, seed) warm-up snapshot, so the sweep's build cost is one
// fragmentation pass per seed rather than one per cell; this is the fan-out
// the copy-on-write snapshot layer exists to make cheap.

// SweepSpec describes one sweep grid.
type SweepSpec struct {
	// Workload names the workload.Catalog entry every cell runs.
	Workload string
	// Policies are sweepable policy names (see SweepPolicies).
	Policies []string
	// Thresholds are the per-policy aggressiveness settings; each policy
	// interprets the value through its own knob (see sweepPolicy).
	Thresholds []float64
	// Seeds is the number of RNG seeds per (policy, threshold) point,
	// numbered consecutively from the run's base seed.
	Seeds int
	// FragKeep is the page-cache residue fragmenting each machine before
	// the run (0 = pristine machine).
	FragKeep float64
}

// SweepCell identifies one point of the grid.
type SweepCell struct {
	Policy    string
	Threshold float64
	Seed      uint64
}

// Cells expands the grid in deterministic order: policy-major, then
// threshold, then seed. baseSeed numbers the seeds consecutively.
func (s SweepSpec) Cells(baseSeed uint64) []SweepCell {
	cells := make([]SweepCell, 0, len(s.Policies)*len(s.Thresholds)*s.Seeds)
	for _, pol := range s.Policies {
		for _, th := range s.Thresholds {
			for i := 0; i < s.Seeds; i++ {
				cells = append(cells, SweepCell{Policy: pol, Threshold: th, Seed: baseSeed + uint64(i)})
			}
		}
	}
	return cells
}

// Validate rejects grids that would fail mid-run or mean nothing: unknown
// workload or policy names, empty axes, thresholds that are NaN, infinite
// or negative (no policy knob has a meaning for them) or outside a
// policy's own range (sweepPolicy), and a FragKeep outside [0, 1] (a share
// of memory; the caches key on it, so a NaN keep would build and leak one
// machine and one trace per cell).
func (s SweepSpec) Validate() error {
	if _, ok := workload.Catalog()[s.Workload]; !ok {
		names := make([]string, 0)
		for n := range workload.Catalog() {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("sweep: unknown workload %q (valid: %s)", s.Workload, strings.Join(names, ", "))
	}
	if len(s.Policies) == 0 || len(s.Thresholds) == 0 || s.Seeds < 1 {
		return fmt.Errorf("sweep: empty grid (policies=%d thresholds=%d seeds=%d)",
			len(s.Policies), len(s.Thresholds), s.Seeds)
	}
	for _, th := range s.Thresholds {
		if math.IsNaN(th) || math.IsInf(th, 0) || th < 0 {
			return fmt.Errorf("sweep: threshold %v must be finite and non-negative", th)
		}
	}
	if !(s.FragKeep >= 0 && s.FragKeep <= 1) {
		return fmt.Errorf("sweep: keep %v must be within [0, 1]", s.FragKeep)
	}
	for _, name := range s.Policies {
		for _, th := range s.Thresholds {
			if _, err := sweepPolicy(name, th, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// SweepRow is one cell's outcome, shaped for the hawkeye-sweep/v1 report.
type SweepRow struct {
	Policy         string  `json:"policy"`
	Threshold      float64 `json:"threshold"`
	Seed           uint64  `json:"seed"`
	RuntimeSeconds float64 `json:"runtime_seconds"`
	Overhead       float64 `json:"overhead"`
	Faults         int64   `json:"faults"`
	HugeFaults     int64   `json:"huge_faults"`
	Promotions     int64   `json:"promotions"`
	OOM            bool    `json:"oom"`
	// CowDirtyChunks is the number of table chunks this cell's machine
	// materialized over the shared warm-up snapshot — the incremental
	// memory the cell cost beyond the frozen image.
	CowDirtyChunks int64  `json:"cow_dirty_chunks"`
	Error          string `json:"error,omitempty"`
}

// SweepPolicies lists the policy names sweepPolicy accepts, in the
// conventional comparison order.
func SweepPolicies() []string {
	return []string{"linux-4k", "linux", "ingens", "hawkeye-pmu", "hawkeye-g"}
}

// sweepPolicy builds a fresh policy instance with its aggressiveness knob
// set from the sweep threshold. The threshold means something different per
// policy — it is the policy's own unit, not a shared scale:
//
//   - linux-4k: no promotion; threshold ignored (baseline row).
//   - linux: khugepaged scan rate, regions/second.
//   - ingens: utilization bar in [0,1] (the paper's 90% knob); a larger
//     value could never promote, so it is an error.
//   - hawkeye-pmu, hawkeye-g: access-coverage based promotion rate,
//     regions/second.
//
// Quick mode multiplies rate-like knobs by the same ~10x factor the
// recovery experiments use, keeping shapes comparable under compressed
// workload durations.
func sweepPolicy(name string, threshold float64, quick bool) (kernel.Policy, error) {
	f := 1.0
	if quick {
		f = 10
	}
	switch name {
	case "linux-4k":
		return policy.NewNone(), nil
	case "linux":
		p := policy.NewLinuxTHP()
		p.ScanRate = threshold * f
		return p, nil
	case "ingens":
		if threshold > 1 {
			return nil, fmt.Errorf("sweep: ingens threshold %v must be within [0, 1] (a utilization bar)", threshold)
		}
		p := policy.NewIngens()
		p.UtilThreshold = threshold
		p.ScanRate *= f
		return p, nil
	case "hawkeye-pmu":
		h := quickHawkEye(core.VariantPMU, f)
		h.Cfg.PromoteRate = threshold * f
		return h, nil
	case "hawkeye-g":
		h := quickHawkEye(core.VariantG, f)
		h.Cfg.PromoteRate = threshold * f
		return h, nil
	default:
		return nil, fmt.Errorf("sweep: unknown policy %q (valid: %s)",
			name, strings.Join(SweepPolicies(), ", "))
	}
}

// RunSweepCell executes one grid cell: fork (or build) a machine fragmented
// with spec.FragKeep, run the workload under the cell's policy, and report
// the outcome. Failures land in the row's Error field rather than aborting
// the sweep. The cell's seed overrides the options' seed; everything else
// (scale, quick, cache bypass, tracing) flows through from o. A traced
// cell's machine is frozen when the cell ends (TraceSet.freeze); only that
// machine, since parallel cells share o.Traces.
func RunSweepCell(o Options, spec SweepSpec, cell SweepCell) SweepRow {
	row := SweepRow{Policy: cell.Policy, Threshold: cell.Threshold, Seed: cell.Seed}
	ws, ok := workload.Catalog()[spec.Workload]
	if !ok {
		row.Error = fmt.Sprintf("unknown workload %q", spec.Workload)
		return row
	}
	pol, err := sweepPolicy(cell.Policy, cell.Threshold, o.Quick)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	o = o.withDefaults()
	o.Seed = cell.Seed
	// Seed 0 would be re-defaulted by a later withDefaults; keep it explicit.
	if o.Seed == 0 {
		o.Seed = 1
	}
	ws.WorkSeconds = o.work(ws.WorkSeconds)
	inst := workload.New(ws, o.Scale)
	res, k, err := runConcurrent(o, pol, []*workload.Instance{inst}, []string{spec.Workload}, spec.FragKeep, 0)
	if k != nil {
		row.CowDirtyChunks = k.COWDirtyChunks()
		if k.Trace != nil {
			k.Trace.Freeze()
			k.Rec.Freeze()
		}
	}
	if err != nil {
		row.Error = err.Error()
		return row
	}
	r := res[0]
	row.RuntimeSeconds = r.Runtime.Seconds()
	row.Overhead = r.Overhead
	row.Faults = r.Faults
	row.HugeFaults = r.HugeFaults
	row.Promotions = r.Promotions
	row.OOM = r.OOM
	return row
}
