package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// setupProbes is how many extra children per timed run only set up: they
// exit after the first op, so setup_s is a median over several set-ups even
// when one pass fills the run.
const setupProbes = 3

// childRun is what the parent measured of one child process. Times are raw:
// at the host's speed, calibration included.
type childRun struct {
	wall       float64 // s, exec → exit
	setup      float64 // s, exec → first op result
	cpu        float64 // s, user + system, from rusage
	maxRSSMB   float64
	ops        []opResult
	totalAlloc uint64 // bytes the child's ops allocated
	cal        []calibration
}

// speed is the child's host speed relative to the reference machine: the
// op-time-weighted mean of what each op's calibration measured. A time t
// of the child would have been t × speed at reference speed. It is 1 for
// an uncalibrated child.
func (cr childRun) speed() float64 {
	var w, sum float64
	for i, c := range cr.cal {
		if i >= len(cr.ops) || c.TimedNS <= 0 {
			break
		}
		wi := float64(cr.ops[i].WallNS)
		w += wi
		sum += wi * c.speed()
	}
	if w == 0 {
		return 1
	}
	return sum / w
}

// calSeconds is the time the child spent calibrating.
func (cr childRun) calSeconds() float64 {
	var ns int64
	for _, c := range cr.cal {
		ns += c.TotalNS
	}
	return float64(ns) / 1e9
}

// spawn runs the first n ops of w (all when n <= 0) in a fresh child
// process of this binary and waits for it to exit. A non-empty profile
// turns on the traced run: a CPU profile written there, per-op pprof labels
// and per-op counters.
func spawn(w workload, seed uint64, n int, profile string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-ops", strconv.Itoa(n)}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	// A child must not outlive an interrupted run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var cr childRun
	readErr := readChild(stdout, start, &cr)
	if readErr != nil {
		// Drain so the child cannot block on a full pipe, then reap it.
		_, _ = io.Copy(io.Discard, stdout)
	}
	waitErr := cmd.Wait()
	cr.wall = time.Since(start).Seconds()
	if waitErr != nil {
		return cr, fmt.Errorf("%s child: %w", w.name, waitErr)
	}
	if readErr != nil {
		return cr, fmt.Errorf("%s child: %w", w.name, readErr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		cr.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cr, nil
}

// readChild decodes a child's result lines. The time the first op result
// arrives is the child's set-up time.
func readChild(r io.Reader, start time.Time, cr *childRun) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	done := false
	for sc.Scan() {
		// A line is an opResult or, last, a childEnd.
		var line struct {
			opResult
			childEnd
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("child line: %w", err)
		}
		if line.Done {
			cr.totalAlloc = line.TotalAlloc
			cr.cal = line.Cal
			done = true
			continue
		}
		if len(cr.ops) == 0 {
			cr.setup = time.Since(start).Seconds()
		}
		cr.ops = append(cr.ops, line.opResult)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("exited after %d ops without an end line", len(cr.ops))
	}
	return nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// timedRun is the untraced measurement of one workload: setupProbes
// set-up-only children, then full passes, each in a fresh child, until the
// next pass would end after seconds (always at least one pass).
func timedRun(w workload, seed uint64, seconds float64) (result, error) {
	golden, err := goldens(seed, w.name)
	if err != nil {
		return result{}, err
	}
	chk := newChecker(golden)
	start := time.Now()
	var probes, passes []childRun
	for range setupProbes {
		cr, err := spawn(w, seed, 1, "")
		if err != nil {
			return result{}, err
		}
		probes = append(probes, cr)
	}
	for {
		cr, err := spawn(w, seed, 0, "")
		if err != nil {
			return result{}, err
		}
		passes = append(passes, cr)
		if time.Since(start).Seconds()+cr.wall > seconds {
			break
		}
	}
	for _, group := range [][]childRun{probes, passes} {
		for _, cr := range group {
			for _, o := range cr.ops {
				chk.check(o)
			}
		}
	}
	return summarize(chk, probes, passes), nil
}

// summarize turns a timed run's children into the end-to-end metrics. Each
// time is rescaled to reference speed by its own child's calibration, after
// the calibration's own time is taken out of wall and CPU time.
func summarize(chk *checker, probes, passes []childRun) result {
	var walls, cpus, rss, opMS, setups, rawWalls, speeds []float64
	for _, p := range passes {
		v := p.speed()
		walls = append(walls, (p.wall-p.calSeconds())*v)
		cpus = append(cpus, (p.cpu-p.calSeconds())*v)
		rss = append(rss, p.maxRSSMB)
		rawWalls = append(rawWalls, p.wall-p.calSeconds())
		speeds = append(speeds, v)
		for _, o := range p.ops {
			opMS = append(opMS, float64(o.ThreadNS)/1e6*v)
		}
	}
	for _, group := range [][]childRun{probes, passes} {
		for _, p := range group {
			setups = append(setups, p.setup*p.speed())
		}
	}
	p90, ok := percentile(opMS, 0.9)
	r := newResult(chk, endToEnd)
	r.put("wall_s", median(walls))
	r.put("cpu_s", median(cpus))
	r.put("setup_s", median(setups))
	r.put("op_p50_ms", median(opMS))
	r.put("op_p90_ms", p90)
	r.put("peak_rss_mb", median(rss))
	r.notes = append(r.notes,
		fmt.Sprintf("%d passes, %d set-ups, %d op samples", len(passes), len(setups), len(opMS)),
		fmt.Sprintf("host speed %.3f of the reference machine; raw wall %.3f s", median(speeds), median(rawWalls)))
	if !ok {
		r.notes = append(r.notes, fmt.Sprintf(
			"op_p90_ms: fewer than %d of %d ops lie beyond it, so it is a single op's time, not a tail", minBeyond, len(opMS)))
	}
	return r
}
