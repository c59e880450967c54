// Command perfbench measures the simulator's host speed on three closed-loop
// workloads (fig10, scale64, serve) and checks that every simulated outcome
// stays exactly what it was. It drives the simulator from outside, through
// the calls occamy.Run and occamy-serve already make, so a change meant only
// for speed is measured without touching the program under test.
//
// Build and run it through run.py in this directory:
//
//	python3 perfbench/run.py --workload fig10 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics. With --trace 0 those are the end-to-end metrics,
// measured with tracing off; with --trace 1 the run alternates untraced and
// traced passes, and the metrics are the per-layer ones. See
// NOTES.md for how the workloads and bounds were chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRounds is how many times a run sets its workload up, setupRoundsAfter
// of them after the timed phase; setup_s is the median.
const (
	setupRounds      = 31
	setupRoundsAfter = 16
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: fig10, scale64 or serve")
	seed := flag.Uint64("seed", defaultSeed, "input seed: picks the data seed, the job order and the serve job mix")
	seconds := flag.Int("seconds", 30, "length of the timed phase; every job of the list runs at least once")
	trace := flag.Int("trace", 0, "1 = traced run: untraced passes alternating with passes under spans and a CPU profile, reporting per-layer metrics")
	record := flag.String("record-serve", "", "write the outcome of every campaign point and traffic spec serve can draw to this file (outcomes.json) and exit")
	flag.Parse()

	if *record != "" {
		if err := recordServe(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fig10|scale64|serve, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	res, err := run(def, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up setupRounds times, runs the timed phase (or the
// traced run's alternating passes), checks the outcome digest and assembles
// the result line.
func run(def workloadDef, seed uint64, d time.Duration, traced bool) (*result, error) {
	pr, err := newProber()
	if err != nil {
		return nil, err
	}
	var setups []float64
	setup := func() (runner, error) {
		runtime.GC() // every round starts from the same heap
		f := pr.factor()
		t0 := time.Now()
		drv, err := def.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", def.name, err)
		}
		secs := time.Since(t0).Seconds()
		setups = append(setups, secs*(f+pr.factor())/2)
		return drv, nil
	}
	// spare is a set-up round that is only measured. Rounds run before and
	// after the timed phase, so their median spans the host's phases; the
	// last round before timing is the one timed.
	spare := func() error {
		drv, err := setup()
		if err != nil {
			return err
		}
		return drv.close()
	}
	for i := 1; i < setupRounds-setupRoundsAfter; i++ {
		if err := spare(); err != nil {
			return nil, err
		}
	}
	drv, err := setup()
	if err != nil {
		return nil, err
	}
	runtime.GC()

	outs := newOutcomes(drv.numJobs())
	res := &result{Metrics: map[string]metric{}}
	var phases []*phase
	if !traced {
		ph := newPhase(nil, outs)
		runPhase(drv, ph, pr, d, true)
		phases = append(phases, ph)
		res.Metrics["sim_mcycles_per_s"] = metric{ph.mcyclesPerSec(), "Mcycles/s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		printPhase(def.name, "timed", ph)
	} else {
		ph, err := tracedRun(def, drv, pr, outs, d, seed, res)
		if err != nil {
			drv.close() // the run's error is the one to report
			return nil, err
		}
		phases = append(phases, ph...)
	}
	if err := drv.close(); err != nil {
		return nil, err
	}
	for i := 0; i < setupRoundsAfter; i++ {
		if err := spare(); err != nil {
			return nil, err
		}
	}
	if !traced {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}

	for _, ph := range phases {
		res.Attempted += ph.jobs
		res.Failed += ph.failed
		for _, e := range ph.errs {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
		}
	}
	fmt.Printf("%s host contention: median probe %.2fx nominal\n", def.name, pr.contention())
	// The digest check is one more operation, so failed never exceeds
	// attempted.
	res.Attempted++
	if !checkDigest(def.name, seed, drv, outs) {
		res.Failed++
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// checkDigest folds every job's outcome into the workload digest and compares
// it with the recorded one. It reports false on a mismatch or when some job
// of the list never completed.
func checkDigest(name string, seed uint64, drv runner, outs *outcomes) bool {
	dg, complete := outs.digest()
	if !complete {
		fmt.Printf("%s outcome digest: incomplete, some jobs never finished\n", name)
		return false
	}
	want, err := drv.wantDigest(seed)
	switch {
	case err != nil:
		fmt.Printf("%s outcome digest %016x: %v\n", name, dg, err)
		return false
	case want != dg:
		fmt.Printf("%s outcome digest %016x, recorded %016x: MISMATCH\n", name, dg, want)
		return false
	}
	fmt.Printf("%s outcome digest %016x matches the recorded value\n", name, dg)
	return true
}

func printPhase(name, label string, ph *phase) {
	fmt.Printf("%s %s phase: %d jobs, %d failed, %.2f s, %.4f Mcycles/s contention-corrected, %.4f raw\n",
		name, label, ph.jobs, ph.failed, ph.elapsed.Seconds(), ph.mcyclesPerSec(), ph.rawMcyclesPerSec())
	tails := kindTails(ph.lat)
	var kinds []string
	for k := range tails {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if t := tails[k]; t.err != nil {
			fmt.Printf("  %s latency: %v\n", k, t.err)
		} else {
			fmt.Printf("  %s latency: %d jobs, p50 %.1f ms, p90 %.1f ms\n", k, t.n, t.p50, t.p90)
		}
	}
}

// peakRSSMB is the process's high-water resident set size, less the
// contention probe's table, which is resident from the first probe on.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss)/1024 - probeWords*8/(1<<20) // Linux reports KiB
}
