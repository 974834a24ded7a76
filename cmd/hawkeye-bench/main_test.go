package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags gives the validated flags one bad or boundary value each on
// top of the defaults and checks which flag checkFlags names ("" =
// accepted).
func TestCheckFlags(t *testing.T) {
	valid := runFlags{scale: 1.0 / 12}
	for _, tc := range []struct {
		name string
		set  func(f *runFlags)
		want string
	}{
		{"defaults", func(f *runFlags) {}, ""},
		{"scale NaN", func(f *runFlags) { f.scale = math.NaN() }, "scale"},
		{"scale 0", func(f *runFlags) { f.scale = 0 }, "scale"},
		{"scale -1", func(f *runFlags) { f.scale = -1 }, "scale"},
		{"scale Inf", func(f *runFlags) { f.scale = math.Inf(1) }, "scale"},
		{"scale 0.02", func(f *runFlags) { f.scale = 0.02 }, ""},
		{"experiment outputs", func(f *runFlags) { f.memProfile, f.traceOut, f.traceDir = "m", "t", "d" }, ""},
		{"sweep", func(f *runFlags) { f.sweep = true }, ""},
		{"sweep memprofile", func(f *runFlags) { f.sweep, f.memProfile = true, "m" }, "memprofile"},
		{"sweep trace", func(f *runFlags) { f.sweep, f.traceOut = true, "t" }, "trace"},
		{"sweep trace-events", func(f *runFlags) { f.sweep, f.traceDir = true, "d" }, "trace-events"},
		{"sweep scale NaN", func(f *runFlags) { f.sweep, f.scale, f.traceDir = true, math.NaN(), "d" }, "scale"},
	} {
		f := valid
		tc.set(&f)
		err := checkFlags(f)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), "-"+tc.want+" ")):
			t.Errorf("%s: got error %v, want one naming -%s", tc.name, err, tc.want)
		}
	}
}
