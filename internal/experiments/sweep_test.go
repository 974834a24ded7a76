package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestSweepSpecValidate checks the threshold rule of SweepSpec.Validate: a
// threshold that is NaN, infinite or negative has no meaning under any
// policy's knob and must be rejected before a cell runs.
func TestSweepSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		threshold float64
		ok        bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{-0.1, false},
		{0, true},
		{0.5, true},
		{2, true},
	} {
		spec := SweepSpec{
			Workload:   "graph500",
			Policies:   []string{"linux", "ingens"},
			Thresholds: []float64{0.5, tc.threshold},
			Seeds:      1,
		}
		err := spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("threshold %v: unexpected error %v", tc.threshold, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "threshold")) {
			t.Errorf("threshold %v: got error %v, want a threshold error", tc.threshold, err)
		}
	}
}
