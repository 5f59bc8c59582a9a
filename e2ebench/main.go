// Command e2ebench is Chronos's end-to-end benchmark. In one process it
// starts Chronos Control on a durable store (plus a replication follower
// for the fanout workload), runs agents over the Go SDK against it, and
// reports what users of an evaluation toolkit see: job throughput,
// claim and report latency, the SUT's drive rate and pacing fidelity.
// Every run checks the outputs with a correctness gate.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash e2ebench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced pass; --trace 1
// runs an untraced and a traced pass and prints the per-layer metrics.
// The last line of standard output is one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"
)

// setUps is how many times a run sets the system up to report the
// median set-up time.
const setUps = 15

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed; reaches the system only as job parameters")
		seconds = flag.Int("seconds", 15, "run length: a run schedules this many seconds of jobs at the workload's nominal rate")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	)
	flag.Parse()
	wl := workloads[*name]
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	runDir := filepath.Join(".bench_build", fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	procLog, err := os.Create(filepath.Join(runDir, "process.log"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer procLog.Close()
	log.SetOutput(procLog)

	fmt.Printf("e2ebench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *trace)
	var (
		ms, extra []metric
		res       *passResult
	)
	if *trace == 0 {
		ms, extra, res, err = untraced(runDir, wl, *seed, *seconds)
	} else {
		ms, res, err = traced(runDir, wl, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	for _, m := range extra {
		fmt.Println("unbounded " + m.String())
	}
	report(ms, res)
	return 0
}

// untraced sets the system up setUps times, keeps the last one, and
// measures the end-to-end metrics on it: the bounded ones, and the
// unbounded ones that are printed beside them.
func untraced(runDir string, wl *workloadSpec, seed int64, seconds int) (ms, extra []metric, res *passResult, err error) {
	var setups []float64
	var sys *system
	for i := 0; i < setUps; i++ {
		start := time.Now()
		s, err := startSystem(filepath.Join(runDir, fmt.Sprintf("setup%d", i)), wl, seed, nil)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setUps-1 {
			s.close()
			if err := os.RemoveAll(s.dir); err != nil {
				return nil, nil, nil, err
			}
		} else {
			sys = s
		}
	}
	res, err = runPass(sys, newRecorder(false), float64(seconds))
	sys.close()
	if err != nil {
		return nil, nil, nil, err
	}
	extra, err = unbounded(res)
	return endToEnd(res, setups), extra, res, err
}

// traced runs an untraced pass (the tracing-overhead baseline) and then
// a traced pass, each on a fresh system and each half the run's jobs,
// and computes the per-layer metrics from the traced one.
func traced(runDir string, wl *workloadSpec, seed int64, seconds int) ([]metric, *passResult, error) {
	var (
		passes [2]*passResult
		user   []metric
	)
	for i, tracing := range []bool{false, true} {
		rec := newRecorder(tracing)
		sys, err := startSystem(filepath.Join(runDir, fmt.Sprintf("pass%d", i)), wl, seed, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		passes[i], err = runPass(sys, rec, float64(seconds)/2)
		sys.close()
		if err != nil {
			return nil, nil, err
		}
		if !tracing {
			// Read before the traced pass, whose spans take memory.
			if user, err = unbounded(passes[i]); err != nil {
				return nil, nil, err
			}
		}
	}
	base, res := passes[0], passes[1]
	genNs, err := genProbe(wl, seed)
	if err != nil {
		return nil, nil, err
	}
	// The run is judged on both passes: their failures and attempts add
	// up, and every span-accounting violation is one more failure.
	traceProblems := checkTrace(res, traceTree(res.rec.spans))
	res.problems = append(append(res.problems, base.problems...), traceProblems...)
	res.failed += base.failed + int64(len(traceProblems))
	res.attempts += base.attempts
	fmt.Printf("untraced jobs_per_s %.4g, traced %.4g\n", jobsPerS(base), jobsPerS(res))
	return perLayer(wl, res, base, user, genNs), res, nil
}

// report prints one line per metric and the closing JSON object.
func report(ms []metric, res *passResult) {
	for _, p := range res.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	fmt.Print("host CPU ticks stolen per slice:")
	for k := range res.use {
		lo, hi := sliceBounds(k, res.window)
		fmt.Printf(" %.0f", stealAt(res.steal, hi)-stealAt(res.steal, lo))
	}
	fmt.Printf("; slices in the medians: %v\n", res.use)
	fmt.Print("jobs/s per slice:")
	for k := range res.use {
		one := make([]bool, len(res.use))
		one[k] = true
		fmt.Printf(" %.0f", quietRate(jobIntervals(res), res.window, one))
	}
	fmt.Println()
	fmt.Printf("jobs %d, SDK calls %d, SUT operations %d, failures %d of %d attempted (error_rate %.6g)\n",
		len(res.jobs), len(res.rec.calls), res.sutOps, res.failed, res.attempts,
		float64(res.failed)/float64(max(res.attempts, 1)))
	out := map[string]any{}
	correct := len(res.problems) == 0
	for _, m := range ms {
		fmt.Println(m.String())
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Printf("FAIL metric %s is not a number\n", m.name)
			correct, m.value = false, 0
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempts,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		panic(err) // maps of strings and finite floats always marshal
	}
	fmt.Println(string(line))
}
