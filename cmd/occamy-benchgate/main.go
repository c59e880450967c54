// Command occamy-benchgate gates CI on benchmark regressions. It reads
// `go test -bench` output on stdin, extracts ns/op and allocs/op per
// benchmark (taking the fastest of repeated -count runs, the standard way to
// suppress scheduling noise), and enforces two contracts:
//
//  1. Hard zero-allocation gate: every benchmark that reports allocs/op and
//     matches -zeroalloc must report exactly 0 — the simulator's steady
//     state is allocation-free by design (DESIGN.md "Performance") and any
//     nonzero value is a regression, not noise.
//
//  2. Throughput gate: ns/op must stay within -tolerance (default ±10%) of
//     the committed baseline. Faster-than-baseline results outside the band
//     are reported too — they mean the baseline is stale and should be
//     refreshed with -update.
//
//  3. Whole-sweep wall-clock gate: benchmarks matching -sweep are end-to-end
//     sweep timings (construction, checkpoint forking, verification and
//     rendering included, e.g. BenchmarkSweepWallClock). They gate against
//     the same baseline but with the wider -sweeptolerance band — whole-run
//     wall clock is noisier than a warm per-tick loop — and are exempt from
//     the zero-allocation contract, which is a steady-state property.
//
// Usage:
//
//	go test -run xxx -bench 'SteadyStateTick|BatchTick|IssueScan' -benchmem -count 3 . ./internal/coproc |
//	    occamy-benchgate -baseline BENCH_PR14.json           # gate
//	go test ... | occamy-benchgate -baseline BENCH_PR14.json -update
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed reference file. Ns/op is the fastest observed
// iteration time; AllocsPerOp is recorded for reference (the gate itself is
// "exactly zero", independent of the baseline).
type Baseline struct {
	// Note records where the numbers came from; informational only.
	Note       string               `json:"note,omitempty"`
	Benchmarks map[string]BenchLine `json:"benchmarks"`
}

// BenchLine is one benchmark's reference numbers.
type BenchLine struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchRe matches the name field of a benchmark result line; the trailing
// -N GOMAXPROCS suffix is stripped so names are machine-independent.
var benchRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parse extracts {name -> best line} from go-test bench output. Metric
// fields come in "value unit" pairs after the iteration count.
func parse(r *bufio.Scanner) (map[string]BenchLine, error) {
	got := map[string]BenchLine{}
	for r.Scan() {
		m := benchRe.FindStringSubmatch(r.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		fields := strings.Fields(m[2])
		var line BenchLine
		hasNs := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad metric value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				line.NsPerOp, hasNs = v, true
			case "allocs/op":
				line.AllocsPerOp = v
			}
		}
		if !hasNs {
			continue
		}
		if best, ok := got[name]; !ok || line.NsPerOp < best.NsPerOp {
			got[name] = line
		} else {
			// Keep the fastest time but never drop an alloc report: any
			// repeat that allocated should fail the hard gate.
			if line.AllocsPerOp > best.AllocsPerOp {
				best.AllocsPerOp = line.AllocsPerOp
				got[name] = best
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(got) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return got, nil
}

func sortedNames(m map[string]BenchLine) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		basePath  = flag.String("baseline", "BENCH_PR14.json", "committed baseline JSON")
		update    = flag.Bool("update", false, "rewrite the baseline from stdin instead of gating")
		tolerance = flag.Float64("tolerance", 0.10, "allowed relative ns/op drift vs baseline")
		sweep     = flag.String("sweep", "SweepWallClock|DegradationSweep", "regexp of whole-sweep wall-clock benchmarks: gated with -sweeptolerance, exempt from -zeroalloc")
		sweepTol  = flag.Float64("sweeptolerance", 0.30, "allowed relative ns/op drift for -sweep benchmarks")
		zeroalloc = flag.String("zeroalloc", ".", "regexp of benchmarks whose allocs/op must be exactly 0")
		note      = flag.String("note", "", "provenance note to store with -update")
	)
	flag.Parse()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "occamy-benchgate: "+format+"\n", args...)
		os.Exit(1)
	}

	got, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fail("%v", err)
	}

	if *update {
		b := Baseline{Note: *note, Benchmarks: got}
		if b.Note == "" {
			b.Note = "fastest of repeated runs; refresh on the CI runner class that gates"
		}
		data, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*basePath, append(data, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *basePath, len(got))
		return
	}

	zre, err := regexp.Compile(*zeroalloc)
	if err != nil {
		fail("-zeroalloc: %v", err)
	}
	sre, err := regexp.Compile(*sweep)
	if err != nil {
		fail("-sweep: %v", err)
	}
	data, err := os.ReadFile(*basePath)
	if err != nil {
		fail("%v (run with -update to create it)", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fail("%s: %v", *basePath, err)
	}

	bad := 0
	for _, name := range sortedNames(got) {
		line := got[name]
		isSweep := sre.MatchString(name)
		if !isSweep && zre.MatchString(name) && line.AllocsPerOp != 0 {
			fmt.Printf("FAIL %-40s %g allocs/op, want 0 (hard gate)\n", name, line.AllocsPerOp)
			bad++
		}
		ref, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("note %-40s not in baseline (add with -update)\n", name)
			continue
		}
		tol := *tolerance
		if isSweep {
			tol = *sweepTol
		}
		drift := (line.NsPerOp - ref.NsPerOp) / ref.NsPerOp
		if drift > tol {
			fmt.Printf("FAIL %-40s %.1f ns/op vs baseline %.1f (%+.1f%%, limit %+.0f%%)\n",
				name, line.NsPerOp, ref.NsPerOp, 100*drift, 100*tol)
			bad++
		} else if drift < -tol {
			fmt.Printf("note %-40s %.1f ns/op vs baseline %.1f (%+.1f%%) — faster; refresh the baseline\n",
				name, line.NsPerOp, ref.NsPerOp, 100*drift)
		} else {
			fmt.Printf("ok   %-40s %.1f ns/op vs baseline %.1f (%+.1f%%), %g allocs/op\n",
				name, line.NsPerOp, ref.NsPerOp, 100*drift, line.AllocsPerOp)
		}
	}
	for _, name := range sortedNames(base.Benchmarks) {
		if _, ok := got[name]; !ok {
			fmt.Printf("FAIL %-40s in baseline but missing from this run\n", name)
			bad++
		}
	}
	if bad > 0 {
		fail("%d gate failure(s)", bad)
	}
}
