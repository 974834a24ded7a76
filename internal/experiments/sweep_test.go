package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestSweepSpecValidate checks the numeric rules of SweepSpec.Validate: a
// threshold that is NaN, infinite or negative has no meaning under any
// policy's knob, ingens's threshold is a utilization bar in [0, 1] while
// the rate knobs take any such value, and a keep outside [0, 1] is not a
// share of memory (a NaN keep would also miss every cache lookup), so each
// must be rejected before a cell runs. want is the field the error must
// name, "" if accepted.
func TestSweepSpecValidate(t *testing.T) {
	both := []string{"linux", "ingens"}
	for _, tc := range []struct {
		policies        []string
		threshold, keep float64
		want            string
	}{
		{both, math.NaN(), 0.15, "threshold"},
		{both, math.Inf(1), 0.15, "threshold"},
		{both, math.Inf(-1), 0.15, "threshold"},
		{both, -0.1, 0.15, "threshold"},
		{both, 0, 0.15, ""},
		{both, 0.5, 0.15, ""},
		{[]string{"linux"}, 2, 0.15, ""},
		{[]string{"hawkeye-pmu"}, 2, 0.15, ""},
		{[]string{"ingens"}, 2, 0.15, "threshold"},
		{[]string{"ingens"}, 1, 0.15, ""},
		{both, 0.5, math.NaN(), "keep"},
		{both, 0.5, math.Inf(1), "keep"},
		{both, 0.5, math.Inf(-1), "keep"},
		{both, 0.5, -0.1, "keep"},
		{both, 0.5, 1.5, "keep"},
		{both, 0.5, 0, ""},
		{both, 0.5, 1, ""},
	} {
		spec := SweepSpec{
			Workload:   "graph500",
			Policies:   tc.policies,
			Thresholds: []float64{0.5, tc.threshold},
			Seeds:      1,
			FragKeep:   tc.keep,
		}
		err := spec.Validate()
		if tc.want == "" && err != nil {
			t.Errorf("%v threshold %v keep %v: unexpected error %v", tc.policies, tc.threshold, tc.keep, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%v threshold %v keep %v: got error %v, want a %s error", tc.policies, tc.threshold, tc.keep, err, tc.want)
		}
	}
}
