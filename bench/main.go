// Command bench measures the host cost of the HawkEye simulator on fixed,
// seeded workloads and checks that the simulated output is unchanged.
//
// From the repository root:
//
//	bash bench/run.sh --workload paper-quick --seed 1 --seconds 35 --trace 0
//	bash bench/run.sh --seed 2              # every workload, one pass each
//	bash bench/run.sh --trace 1             # the traced, per-layer run
//	bash bench/run.sh ab -a A -b B -pairs 5 # interleaved A/B of two builds
//
// The last line of a run is one JSON object with the keys correct,
// attempted, failed and metrics. See bench/README.md for the workloads,
// metrics and bounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "ab" {
		if err := abMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench ab:", err)
			os.Exit(1)
		}
		return
	}
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "workload seed: experiments run with it, sweep cells take seeds counting up from it")
	seconds := flag.Float64("seconds", 0, "start another pass only while it would end within this many seconds (0 = one pass)")
	traceMode := flag.Int("trace", 0, "1 = traced run: CPU profile, per-op labels and counters, per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for profiles and span files")
	writeGoldenFlag := flag.Bool("write-golden", false, "run one pass of every workload of -seed and rewrite bench/golden/seed-<seed>.json")
	child := flag.Bool("child", false, "internal: run ops and stream results (used by the parent)")
	nOps := flag.Int("ops", 0, "internal, with -child: run only the first n ops")
	cpuProfile := flag.String("cpuprofile", "", "internal, with -child: traced run writing this CPU profile")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *writeGoldenFlag {
		fail(writeGolden(filepath.Join("bench", goldenDir), *seed))
		return
	}
	if *child {
		w, err := findWorkload(*workloadName)
		fail(err)
		fail(childMain(w, *seed, *nOps, *cpuProfile))
		return
	}
	if *traceMode != 0 && *traceMode != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, not %d", *traceMode))
	}
	if *seconds < 0 {
		fail(fmt.Errorf("-seconds must not be negative"))
	}
	todo := workloads
	if *workloadName != "all" {
		w, err := findWorkload(*workloadName)
		fail(err)
		todo = []workload{w}
	}
	for _, w := range todo {
		var r result
		var err error
		if *traceMode == 1 {
			r, err = tracedRun(w, *seed, *out)
		} else {
			r, err = timedRun(w, *seed, *seconds)
		}
		fail(err)
		fail(r.print(w, *seed))
	}
}

// fail exits with status 1 on a non-nil error. A run that cannot finish
// prints no result line.
func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
