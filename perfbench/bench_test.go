package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"occamy/internal/arch"
	"occamy/internal/experiments"
	"occamy/internal/obs"
	"occamy/internal/serve"
	"occamy/internal/workload"
)

func seq(lo, hi float64) []float64 {
	var xs []float64
	for x := lo; x <= hi; x++ {
		xs = append(xs, x)
	}
	return xs
}

func TestPercentileTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0: the rule must refuse
	}{
		{100, 0.9, 90}, // ranks 91..100 lie beyond: exactly ten
		{99, 0.9, 0},   // nine beyond
		{20, 0.5, 10},
		{19, 0.5, 0},
		{200, 0.9, 180},
	} {
		got, err := percentile(seq(1, float64(tc.n)), tc.q)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want a refusal", 100*tc.q, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", 100*tc.q, tc.n, got, err, tc.want)
		}
	}
	// A failed job is +Inf: beyond every percentile, so eleven failures out
	// of 100 put p90 on a failure.
	xs := seq(1, 89)
	for i := 0; i < 11; i++ {
		xs = append(xs, math.Inf(1))
	}
	if got, _ := percentile(xs, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with 11%% failures = %g, want +Inf", got)
	}
}

func TestKindTailsNeverPool(t *testing.T) {
	lat := map[string][]float64{}
	for i := 0; i < 150; i++ {
		lat["campaign"] = append(lat["campaign"], 240+float64(i%7))
	}
	for i := 0; i < 100; i++ {
		lat["traffic"] = append(lat["traffic"], 37+float64(i%5))
	}
	lat["rare"] = seq(1, 15)
	tails := kindTails(lat)
	if c := tails["campaign"]; c.err != nil || c.p50 < 240 || c.p90 > 246 {
		t.Errorf("campaign tail %+v, want p50 and p90 within the campaign costs", c)
	}
	if tr := tails["traffic"]; tr.err != nil || tr.p50 < 37 || tr.p90 > 41 {
		t.Errorf("traffic tail %+v, want p50 and p90 within the traffic costs", tr)
	}
	if tails["rare"].err == nil {
		t.Errorf("15 samples gave p50 %g, want the ten-beyond refusal", tails["rare"].p50)
	}
}

// TestRateCorrection: each run's host time takes the correction given right
// after it, the rate takes each job's median, and a failed job leaves the
// correction unused.
func TestRateCorrection(t *testing.T) {
	ph := newPhase(nil, newOutcomes(2))
	ph.done(0, 3e6, 2)
	ph.correct(0.5)
	ph.done(0, 3e6, 4)
	ph.correct(0.25)
	ph.done(0, 3e6, 9)
	ph.correct(1)
	ph.done(1, 1e6, 1)
	ph.correct(1)
	ph.correct(100) // after a failed job: nothing to correct
	// Job 0's corrected times are 1, 1 and 9 s (median 1), raw 2, 4 and 9
	// (median 4); job 1 takes 1 s. The list simulates 4e6 cycles.
	if got := ph.mcyclesPerSec(); math.Abs(got-2) > 1e-9 {
		t.Errorf("corrected rate %g Mcycles/s, want 2", got)
	}
	if got := ph.rawMcyclesPerSec(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("raw rate %g Mcycles/s, want 0.8", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"occamy/internal/coproc.(*Coproc).tickCore":            "coproc",
		"occamy/internal/mem.(*Cache).Access":                  "mem",
		"occamy/internal/arch.(*SystemState).Verify":           "arch",
		"occamy/internal/sim.(*Engine).RunUntil.func1":         "sim",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":         "runtime",
		"reflect.Value.Field":                                  "runtime",
		"sync.(*Mutex).Lock":                                   "runtime",
		"sort.insertionSort":                                   "",
		"encoding/json.(*decodeState).object":                  "",
		"occamy.RunTrafficContext":                             "",
		"main.main":                                            "",
		"slices.pdqsortCmpFunc[go.shape.*occamy/internal/x.T]": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldProfileByPackage(t *testing.T) {
	const ms = int64(time.Millisecond)
	restore := "occamy/internal/arch.(*System).RestoreCheckpoint"
	samples := []sample{
		{[]string{"occamy/internal/coproc.(*Coproc).tickCore", "occamy/internal/sim.(*Engine).RunUntil"}, 30 * ms},
		{[]string{"occamy/internal/mem.(*Cache).Access", "occamy/internal/coproc.(*Coproc).tickCore"}, 10 * ms},
		{[]string{"occamy/internal/arch.(*digestState).walk", "occamy/internal/arch.(*SystemState).Verify", restore}, 20 * ms},
		{[]string{"runtime.memmove", restore, restore}, 10 * ms}, // recursion counts once
		{[]string{"sort.insertionSort", "occamy/internal/serve.(*Server).worker"}, 10 * ms},
	}
	f := foldProfile(samples)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	for layer, want := range map[string]float64{"coproc": 0.03, "mem": 0.01, "arch": 0.02, "runtime": 0.01, "serve": 0, "sim": 0} {
		if !near(f.self[layer], want) {
			t.Errorf("self[%s] = %g, want %g (leaf frame only)", layer, f.self[layer], want)
		}
	}
	if !near(f.total, 0.08) {
		t.Errorf("total = %g, want 0.08", f.total)
	}
	if !near(f.incl["arch.restore_s"], 0.03) || !near(f.incl["arch.digest_s"], 0.02) {
		t.Errorf("inclusive = %v, want restore 0.03 and digest 0.02", f.incl)
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inBurn int64
	for _, s := range samples {
		total += s.nanos
		for _, fn := range s.stack {
			if fn == "occamy/perfbench.burn" || fn == "main.burn" {
				inBurn += s.nanos
				break
			}
		}
	}
	if total == 0 || inBurn < total/2 {
		t.Fatalf("decoded %d samples, %v total, %v under burn; want most of it under burn",
			len(samples), time.Duration(total), time.Duration(inBurn))
	}
}

// TestDigestStable runs the same short job list twice and requires the same
// outcome digest, and the outcome gate to refuse a changed outcome.
func TestDigestStable(t *testing.T) {
	reg := workload.NewRegistry()
	pair := workload.Figure10Pairs(reg)[18] // cv:WL7+WL3, the shortest pair
	var jobs []simJob
	for i, k := range []arch.Kind{arch.FTS, arch.Occamy} {
		jobs = append(jobs, simJob{id: i, name: k.String(), kind: k, sched: pair, opts: arch.Options{Seed: 3}, verify: true})
	}
	pr, err := newProber()
	if err != nil {
		t.Fatal(err)
	}
	digest := func() uint64 {
		outs := newOutcomes(len(jobs))
		ph := newPhase(nil, outs)
		runPhase(&simRunner{jobs: jobs}, ph, pr, 0, false)
		if ph.failed != 0 {
			t.Fatalf("failed jobs: %v", ph.errs)
		}
		d, complete := outs.digest()
		if !complete {
			t.Fatal("digest incomplete after a full pass")
		}
		return d
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("two identical runs gave digests %016x and %016x", a, b)
	}
	outs := newOutcomes(1)
	if err := outs.check(0, 1); err != nil {
		t.Fatal(err)
	}
	if outs.check(0, 2) == nil {
		t.Fatal("outcome gate accepted a changed outcome")
	}
}

func TestGuards(t *testing.T) {
	reg := workload.NewRegistry()
	s := experiments.ScaleGroup(reg, 64)
	if err := guardVectorTrips(s); err != nil {
		t.Fatalf("full-size 64-core group rejected: %v", err)
	}
	if guardVectorTrips(s.Scaled(0.1)) == nil {
		t.Error("64-core group at Scale 0.1 (all scalar fallback) accepted")
	}
	if guardFaultPoint("exebu:2@3000", 2) == nil {
		t.Error("failing two ExeBUs against a 2-unit VLS share accepted")
	}
	if err := guardFaultPoint("exebu:1@3000+2000;bw:dram:0.5@4000+1000", 2); err != nil {
		t.Errorf("safe fault point rejected: %v", err)
	}
	if guardTraffic("poisson:load=0.5,elems=128") == nil {
		t.Error("traffic tasks below the scalar threshold accepted")
	}
	var specs []serve.JobSpec
	for i := 0; i < cacheCap+1; i++ {
		specs = append(specs, serve.JobSpec{Kind: "campaign", Arch: "occamy", Workloads: []string{"spec/WL20", "spec/WL17"}, Seed: uint64(i + 1)})
	}
	if guardWarmKeys(specs) == nil {
		t.Errorf("%d warm-up keys accepted by a %d-entry cache", cacheCap+1, cacheCap)
	}
}

func TestServeJobList(t *testing.T) {
	for _, seed := range []uint64{defaultSeed, heldOutSeed} {
		jobs, err := serveJobs(seed)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		keys := map[uint64]bool{}
		for _, j := range jobs {
			kinds[j.spec.Kind]++
			if j.spec.Kind == "campaign" {
				keys[j.spec.WarmKey()] = true
				if f := j.spec.Faults; len(f) != 1+campaignFaulted || f[0] != "" || f[1] == f[2] {
					t.Errorf("seed %d: campaign points %q, want the fault-free point and %d distinct faulted ones", seed, f, campaignFaulted)
				}
			}
		}
		if kinds["campaign"] != kinds["traffic"] || len(keys) != cacheCap {
			t.Errorf("seed %d: kinds %v, %d warm-up keys; want equal kinds and %d keys", seed, kinds, len(keys), cacheCap)
		}
		again, _ := serveJobs(seed)
		for i := range jobs {
			if jobs[i].spec.Key() != again[i].spec.Key() {
				t.Fatalf("seed %d: job list is not a function of the seed", seed)
			}
		}
	}
}

// TestServeOutcomesRecorded requires outcomes.json to cover every job any
// seed can draw, and to give the shipped seeds their recorded digests.
func TestServeOutcomesRecorded(t *testing.T) {
	table, err := serveOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 40; seed++ {
		jobs, err := serveJobs(seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := expectedServeDigest(jobs, table)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want, ok := serveDigest[seed]; ok && d != want {
			t.Errorf("seed %d: outcomes.json folds to %016x, recorded digest %016x", seed, d, want)
		}
	}
	key := trafficKey(serve.JobSpec{Arch: "occamy", Traffic: trafficSpec("poisson", "0.5", 1)})
	if err := checkRecorded(key, table[key]); err != nil {
		t.Fatal(err)
	}
	if checkRecorded(key, table[key]+1) == nil {
		t.Error("a changed traffic outcome passed the recorded check")
	}
}

func TestSpanFile(t *testing.T) {
	tr := newTracer()
	root := tr.begin("job", "j1", 0)
	tr.end(tr.begin("arch.Build", "j1", root))
	tr.end(root)
	tr.end(tr.begin("serve.Server.Submit", "j2", 0))
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path, "test"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.ValidatePerfetto(f); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), `"parent": 1`) {
		t.Errorf("span file lacks the parent link:\n%s", data)
	}
}
