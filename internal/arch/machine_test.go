package arch

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"occamy/internal/workload"
)

// runTuned builds and runs one workload pair with the given overrides.
func runTuned(t *testing.T, kind Kind, m *MachineTuning) (*System, *Result) {
	t.Helper()
	r := workload.NewRegistry()
	sched := workload.CoSchedule{
		Name: "tuned",
		W: []*workload.Workload{
			r.Workload("spec/WL20").Scaled(0.25),
			r.Workload("spec/WL17").Scaled(0.25),
		},
	}
	sys, err := Build(kind, sched, Options{Seed: 1, Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(400_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

// TestMachineTuningDRAMLatency verifies that slowing DRAM down lengthens a
// memory-bound run and never breaks functional correctness.
func TestMachineTuningDRAMLatency(t *testing.T) {
	_, base := runTuned(t, Occamy, nil)
	sysSlow, slow := runTuned(t, Occamy, &MachineTuning{
		DRAMLatencyCycles: 400,
		DRAMBytesPerCycle: 4,
	})
	if slow.Cores[0].Cycles <= base.Cores[0].Cycles {
		t.Fatalf("slower DRAM did not lengthen the memory core: %d vs %d",
			slow.Cores[0].Cycles, base.Cores[0].Cycles)
	}
	if err := sysSlow.CheckResults(2e-3); err != nil {
		t.Fatalf("tuned machine broke functional correctness: %v", err)
	}
}

// TestMachineTuningPhysRegs verifies that a starved physical-register file
// increases rename stalls on the temporally-shared architecture.
func TestMachineTuningPhysRegs(t *testing.T) {
	_, base := runTuned(t, FTS, nil)
	_, tiny := runTuned(t, FTS, &MachineTuning{PhysRegs: 96})
	// Note no makespan assertion: on FTS, starving one core's rename can
	// shorten the makespan by reducing interference on the shared issue
	// budget — the same unfairness pathology Figure 13 documents.
	baseStalls := base.Cores[0].RenameStallFrac + base.Cores[1].RenameStallFrac
	tinyStalls := tiny.Cores[0].RenameStallFrac + tiny.Cores[1].RenameStallFrac
	if tinyStalls < baseStalls {
		t.Fatalf("fewer physical registers reduced rename stalls: %.3f vs %.3f",
			tinyStalls, baseStalls)
	}
}

// runSolo runs the full-size memory workload alone on Private with the given
// overrides (at reduced scale the streams are cache-resident and memory knobs
// are invisible).
func runSolo(t *testing.T, m *MachineTuning) *Result {
	t.Helper()
	r := workload.NewRegistry()
	sched := workload.CoSchedule{Name: "solo", W: []*workload.Workload{r.Workload("spec/WL20")}}
	sys, err := Build(Private, sched, Options{Seed: 1, Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(400_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMachineTuningPrefetch verifies the prefetch-degree knob reaches the
// vector cache: changing it must change a full-size streaming run's timing.
// (Direction is workload-dependent — a lone streamer has spare bandwidth, so
// a lower degree can win by not over-fetching; under co-running pressure the
// deep degree wins. Both regimes are covered by the Figure 14 experiments.)
func TestMachineTuningPrefetch(t *testing.T) {
	base := runSolo(t, nil)
	weak := runSolo(t, &MachineTuning{VecPrefetchDegree: 1})
	if weak.Cores[0].Cycles == base.Cores[0].Cycles {
		t.Fatalf("prefetch degree override had no effect (%d cycles)", base.Cores[0].Cycles)
	}
}

// TestMachineTuningVecCacheSize verifies that shrinking the shared vector
// cache below a compute workload's reused footprint makes it thrash. (A pure
// streamer never reuses a line, so the capacity knob needs a workload that
// re-reads its streams; the compute kernels reuse an ~8 KB footprint, so the
// override drops below that.)
func TestMachineTuningVecCacheSize(t *testing.T) {
	r := workload.NewRegistry()
	run := func(m *MachineTuning) *Result {
		sched := workload.CoSchedule{Name: "cap", W: []*workload.Workload{r.Workload("spec/WL17")}}
		sys, err := Build(Private, sched, Options{Seed: 1, Machine: m})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(400_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	tiny := run(&MachineTuning{VecCacheKB: 2})
	if tiny.Cores[0].Cycles <= base.Cores[0].Cycles {
		t.Fatalf("2 KB vector cache did not slow the reuse-heavy workload: %d vs %d",
			tiny.Cores[0].Cycles, base.Cores[0].Cycles)
	}
}

// TestMachineTuningComputeLat verifies pipeline-latency overrides reach the
// ExeBUs: a much deeper FP pipe lengthens a compute-bound core.
func TestMachineTuningComputeLat(t *testing.T) {
	_, base := runTuned(t, Private, nil)
	sysDeep, deep := runTuned(t, Private, &MachineTuning{ComputeLat: 24, DivLat: 60})
	if deep.Cores[1].Cycles <= base.Cores[1].Cycles {
		t.Fatalf("deeper FP pipe did not lengthen the compute core: %d vs %d",
			deep.Cores[1].Cycles, base.Cores[1].Cycles)
	}
	if err := sysDeep.CheckResults(2e-3); err != nil {
		t.Fatalf("latency override broke correctness: %v", err)
	}
}

// TestMachineTuningJSON pins the file format the occamy-sim -machine flag
// accepts.
func TestMachineTuningJSON(t *testing.T) {
	src := `{
	  "dram_latency_cycles": 120,
	  "dram_bytes_per_cycle": 16,
	  "vec_cache_kb": 64,
	  "vec_prefetch_degree": 4,
	  "l2_mb": 4,
	  "phys_regs": 96,
	  "lhq": 24,
	  "stq": 24,
	  "compute_lat": 6,
	  "div_lat": 18,
	  "compute_issue": 1,
	  "mem_issue": 1
	}`
	var m MachineTuning
	if err := json.Unmarshal([]byte(src), &m); err != nil {
		t.Fatal(err)
	}
	want := MachineTuning{
		DRAMLatencyCycles: 120, DRAMBytesPerCycle: 16,
		VecCacheKB: 64, VecPrefetchDegree: 4, L2MB: 4,
		PhysRegs: 96, LHQ: 24, STQ: 24,
		ComputeLat: 6, DivLat: 18, ComputeIssue: 1, MemIssue: 1,
	}
	if m != want {
		t.Fatalf("decoded %+v, want %+v", m, want)
	}
	// A fully-specified tuning must still produce a correct, runnable
	// machine.
	sys, _ := runTuned(t, Occamy, &m)
	if err := sys.CheckResults(2e-3); err != nil {
		t.Fatal(err)
	}
	// Round-trip: zero fields stay omitted.
	out, err := json.Marshal(&MachineTuning{PhysRegs: 96})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"phys_regs":96}` {
		t.Fatalf("omitempty not honoured: %s", out)
	}
}

// TestMachineTuningNilIsDefault pins that a nil tuning changes nothing.
func TestMachineTuningNilIsDefault(t *testing.T) {
	_, a := runTuned(t, Occamy, nil)
	_, b := runTuned(t, Occamy, &MachineTuning{})
	if a.Cycles != b.Cycles || a.Utilization != b.Utilization {
		t.Fatalf("empty tuning changed the run: %d/%.4f vs %d/%.4f",
			a.Cycles, a.Utilization, b.Cycles, b.Utilization)
	}
}

// TestMachineTuningPropertyCorrectness draws random tunings from sane
// hardware ranges and verifies the simulated machine still produces
// host-verified results on the elastic architecture — the simulator's
// functional layer must be timing-independent across the whole design space.
func TestMachineTuningPropertyCorrectness(t *testing.T) {
	gen := func(seed uint64) *MachineTuning {
		// Deterministic xorshift so failures replay.
		x := seed*2654435761 + 1
		next := func(lo, hi int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return lo + int(x%uint64(hi-lo+1))
		}
		return &MachineTuning{
			DRAMLatencyCycles: uint64(next(20, 400)),
			DRAMBytesPerCycle: float64(next(4, 64)),
			VecCacheKB:        4 << next(0, 6), // 4..256, power of two
			VecPrefetchDegree: next(1, 16),
			L2MB:              1 << next(0, 3), // 1..8, power of two
			PhysRegs:          next(80, 320),
			LHQ:               next(8, 64),
			STQ:               next(8, 64),
			ComputeLat:        uint64(next(1, 16)),
			DivLat:            uint64(next(4, 40)),
			ComputeIssue:      next(1, 2),
			MemIssue:          next(1, 2),
		}
	}
	r := workload.NewRegistry()
	for seed := uint64(1); seed <= 12; seed++ {
		m := gen(seed)
		sched := workload.CoSchedule{
			Name: "prop",
			W: []*workload.Workload{
				r.Workload("spec/WL20").Scaled(0.1),
				r.Workload("spec/WL17").Scaled(0.1),
			},
		}
		sys, err := Build(Occamy, sched, Options{Seed: seed, Machine: m})
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, m, err)
		}
		if _, err := sys.Run(400_000_000); err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, m, err)
		}
		if err := sys.CheckResults(2e-3); err != nil {
			t.Errorf("seed %d (%+v): %v", seed, m, err)
		}
	}
}

// TestMachineTuningValidate pins the rejection of unrealizable machines:
// each bad field comes back as a *TuningError naming it, while the limits
// themselves and every tuning the repository ships stay accepted.
func TestMachineTuningValidate(t *testing.T) {
	cases := []struct {
		m     MachineTuning
		field string // "" = accepted
	}{
		{MachineTuning{}, ""},
		{MachineTuning{VecCacheKB: 64, L2MB: 4, PhysRegs: 64}, ""},
		// The limits themselves.
		{MachineTuning{VecCacheKB: 16384, L2MB: 128, PhysRegs: 4096, LHQ: 1024, STQ: 1024,
			ComputeIssue: 64, MemIssue: 64, VecPrefetchDegree: 64,
			DRAMLatencyCycles: 1 << 20, ComputeLat: 1 << 20, DivLat: 1 << 20, DRAMBytesPerCycle: 1.0 / 64}, ""},
		// Tunings the DSE sweeps, benchmarks and tests use.
		{MachineTuning{DRAMBytesPerCycle: 2, DRAMLatencyCycles: 600}, ""},
		{MachineTuning{DRAMBytesPerCycle: 8, DRAMLatencyCycles: 300, PhysRegs: 120}, ""},
		{MachineTuning{VecCacheKB: 2}, ""},
		{MachineTuning{VecCacheKB: 256, ComputeLat: 24, DivLat: 60}, ""},
		{MachineTuning{VecCacheKB: 96}, "vec_cache_kb"}, // not a power of two
		{MachineTuning{L2MB: 5}, "l2_mb"},               // not a power of two
		{MachineTuning{PhysRegs: 48}, "phys_regs"},      // below the architectural floor
		{MachineTuning{LHQ: -1}, "lhq"},
		{MachineTuning{DRAMBytesPerCycle: -8}, "dram_bytes_per_cycle"},
		// Past the limits; lhq 2^62 and phys_regs 2^40 once panicked a build.
		{MachineTuning{LHQ: 1 << 62}, "lhq"},
		{MachineTuning{STQ: 1025}, "stq"},
		{MachineTuning{PhysRegs: 1 << 40}, "phys_regs"},
		{MachineTuning{VecCacheKB: 32768}, "vec_cache_kb"},
		{MachineTuning{L2MB: 256}, "l2_mb"},
		{MachineTuning{ComputeIssue: 65}, "compute_issue"},
		{MachineTuning{MemIssue: 1 << 30}, "mem_issue"},
		{MachineTuning{VecPrefetchDegree: 65}, "vec_prefetch_degree"},
		{MachineTuning{ComputeLat: 1<<64 - 1}, "compute_lat"},
		{MachineTuning{DivLat: 1<<20 + 1}, "div_lat"},
		{MachineTuning{DRAMLatencyCycles: 1 << 40}, "dram_latency_cycles"},
		{MachineTuning{DRAMBytesPerCycle: math.NaN()}, "dram_bytes_per_cycle"},
		{MachineTuning{DRAMBytesPerCycle: math.Inf(1)}, "dram_bytes_per_cycle"},
		{MachineTuning{DRAMBytesPerCycle: 1e-300}, "dram_bytes_per_cycle"},
	}
	for _, c := range cases {
		err := c.m.Validate()
		var te *TuningError
		switch {
		case c.field == "" && err != nil:
			t.Errorf("%+v rejected: %v", c.m, err)
		case c.field != "" && !errors.As(err, &te):
			t.Errorf("%+v: error %v is not a *TuningError", c.m, err)
		case c.field != "" && te.Field != c.field:
			t.Errorf("%+v: rejected field %q (%v), want %q", c.m, te.Field, err, c.field)
		}
	}
	// The shipped example machine stays accepted.
	m, err := decodeTuning(mustRead(t, "../../examples/machines/edge-soc.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("edge-soc.json rejected: %v", err)
	}
	var nilTuning *MachineTuning
	if err := nilTuning.Validate(); err != nil {
		t.Errorf("nil tuning rejected: %v", err)
	}
	// Build surfaces the error rather than panicking deep in the caches.
	r := workload.NewRegistry()
	sched := workload.CoSchedule{Name: "v", W: []*workload.Workload{r.Workload("spec/WL17").Scaled(0.1)}}
	if _, err := Build(Occamy, sched, Options{Machine: &MachineTuning{L2MB: 5}}); err == nil {
		t.Fatal("Build accepted a 5 MB L2")
	}
}

// decodeTuning decodes a machine file the way occamy-sim -machine does:
// unknown keys are errors.
func decodeTuning(data []byte) (*MachineTuning, error) {
	m := new(MachineTuning)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(m); err != nil {
		return nil, err
	}
	return m, nil
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzMachineTuning feeds arbitrary machine files through the -machine
// decoding and Validate. Neither may panic, and every tuning Validate
// accepts must build the motivating pair on the chosen architecture and run
// 1,000 cycles without a panic.
func FuzzMachineTuning(f *testing.F) {
	f.Add(mustRead(f, "../../examples/machines/edge-soc.json"), uint8(0))
	f.Add([]byte(`{"lhq":4611686018427387904}`), uint8(3))
	f.Add([]byte(`{"phys_regs":64,"compute_issue":64,"mem_issue":64}`), uint8(1))
	f.Add([]byte(`{"vec_cache_kb":1,"l2_mb":1,"vec_prefetch_degree":64,"lhq":1,"stq":1}`), uint8(2))
	f.Add([]byte(`{"dram_latency_cycles":1048576,"compute_lat":1048576,"div_lat":1048576,"dram_bytes_per_cycle":0.015625}`), uint8(3))
	f.Add([]byte(`{"dram_bytes_per_cycle":1e308}`), uint8(0))
	f.Add([]byte(`{"vec_cache_kb":16384,"l2_mb":128,"phys_regs":4096,"lhq":1024,"stq":1024,"vec_prefetch_degree":64}`), uint8(1))
	r := workload.NewRegistry()
	pair := workload.MotivatingPair(r)
	for i, w := range pair.W {
		pair.W[i] = w.Scaled(0.1)
	}
	f.Fuzz(func(t *testing.T, data []byte, kind uint8) {
		m, err := decodeTuning(data)
		if err != nil || m.Validate() != nil {
			return
		}
		sys, err := Build(Kinds[int(kind)%len(Kinds)], pair, Options{Seed: 1, Machine: m})
		if err != nil {
			t.Fatalf("accepted tuning %+v does not build: %v", m, err)
		}
		// Running out of the budget is the expected end; a panic is not.
		sys.Engine.RunUntil(sys.Done, 1000)
	})
}
