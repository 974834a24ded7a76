package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags gives each numeric flag one bad or boundary value on top of
// the defaults and checks which flag checkFlags names ("" = accepted).
func TestCheckFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	valid := numericFlags{scale: 1.0 / 12, memGB: 8}
	for _, tc := range []struct {
		name string
		set  func(f *numericFlags)
		want string
	}{
		{"defaults", func(f *numericFlags) {}, ""},
		{"trace smoke", func(f *numericFlags) { f.deadline, f.traceSample = 5, 0.1 }, ""},
		{"scale NaN", func(f *numericFlags) { f.scale = nan }, "scale"},
		{"scale 0", func(f *numericFlags) { f.scale = 0 }, "scale"},
		{"scale Inf", func(f *numericFlags) { f.scale = inf }, "scale"},
		{"mem NaN", func(f *numericFlags) { f.memGB = nan }, "mem"},
		{"mem -1", func(f *numericFlags) { f.memGB = -1 }, "mem"},
		{"mem 0", func(f *numericFlags) { f.memGB = 0 }, "mem"},
		{"mem Inf", func(f *numericFlags) { f.memGB = inf }, "mem"},
		{"mem 0.5", func(f *numericFlags) { f.memGB = 0.5 }, ""},
		{"swap NaN", func(f *numericFlags) { f.swapGB = nan }, "swap"},
		{"swap -1", func(f *numericFlags) { f.swapGB = -1 }, "swap"},
		{"swap Inf", func(f *numericFlags) { f.swapGB = inf }, "swap"},
		{"swap 2", func(f *numericFlags) { f.swapGB = 2 }, ""},
		{"fragment NaN", func(f *numericFlags) { f.fragment = nan }, "fragment"},
		{"fragment -0.5", func(f *numericFlags) { f.fragment = -0.5 }, "fragment"},
		{"fragment 1.5", func(f *numericFlags) { f.fragment = 1.5 }, "fragment"},
		{"fragment 0.15", func(f *numericFlags) { f.fragment = 0.15 }, ""},
		{"fragment 1", func(f *numericFlags) { f.fragment = 1 }, ""},
		{"deadline NaN", func(f *numericFlags) { f.deadline = nan }, "deadline"},
		{"deadline -5", func(f *numericFlags) { f.deadline = -5 }, "deadline"},
		{"deadline Inf", func(f *numericFlags) { f.deadline = inf }, "deadline"},
		{"trace-sample NaN", func(f *numericFlags) { f.traceSample = nan }, "trace-sample"},
		{"trace-sample -1", func(f *numericFlags) { f.traceSample = -1 }, "trace-sample"},
		{"trace-sample Inf", func(f *numericFlags) { f.traceSample = inf }, "trace-sample"},
	} {
		f := valid
		tc.set(&f)
		err := checkFlags(f)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), "-"+tc.want+" must")):
			t.Errorf("%s: got error %v, want one naming -%s", tc.name, err, tc.want)
		}
	}
}
