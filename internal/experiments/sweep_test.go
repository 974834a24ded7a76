package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestSweepSpecValidate checks the numeric rules of SweepSpec.Validate: a
// threshold that is NaN, infinite or negative has no meaning under any
// policy's knob, and a keep outside [0, 1] is not a share of memory (a NaN
// keep would also miss every cache lookup), so both must be rejected before
// a cell runs. want is the field the error must name, "" if accepted.
func TestSweepSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		threshold, keep float64
		want            string
	}{
		{math.NaN(), 0.15, "threshold"},
		{math.Inf(1), 0.15, "threshold"},
		{math.Inf(-1), 0.15, "threshold"},
		{-0.1, 0.15, "threshold"},
		{0, 0.15, ""},
		{0.5, 0.15, ""},
		{2, 0.15, ""},
		{0.5, math.NaN(), "keep"},
		{0.5, math.Inf(1), "keep"},
		{0.5, math.Inf(-1), "keep"},
		{0.5, -0.1, "keep"},
		{0.5, 1.5, "keep"},
		{0.5, 0, ""},
		{0.5, 1, ""},
	} {
		spec := SweepSpec{
			Workload:   "graph500",
			Policies:   []string{"linux", "ingens"},
			Thresholds: []float64{0.5, tc.threshold},
			Seeds:      1,
			FragKeep:   tc.keep,
		}
		err := spec.Validate()
		if tc.want == "" && err != nil {
			t.Errorf("threshold %v keep %v: unexpected error %v", tc.threshold, tc.keep, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("threshold %v keep %v: got error %v, want a %s error", tc.threshold, tc.keep, err, tc.want)
		}
	}
}
