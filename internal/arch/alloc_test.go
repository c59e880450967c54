package arch

import (
	"testing"

	"occamy/internal/coproc"
	"occamy/internal/obs"
	"occamy/internal/telemetry"
	"occamy/internal/workload"
)

// allocGroup is a two-core group whose steady state is long: both workloads
// loop the same kernel for tens of thousands of cycles, so a measurement
// window warmed past the cold-start allocations (queue ramp-up, first lane
// plan, first timeline buckets) sits deep inside a single phase on every
// architecture.
func allocGroup() workload.CoSchedule {
	r := workload.NewRegistry()
	dot := *r.Kernel("dotProd")
	dot.Elems, dot.Repeats = 2000, 30
	tri := *r.Kernel("wsm51")
	tri.Elems, tri.Repeats = 512, 30
	return workload.CoSchedule{Name: "alloc", W: []*workload.Workload{
		{Name: "alloc.dot", Phases: []*workload.Kernel{&dot}},
		{Name: "alloc.tri", Phases: []*workload.Kernel{&tri}},
	}}
}

// measureSteadyAllocs warms sys past cycle 2000 (so the third 1000-cycle
// timeline bucket already exists — bucket growth is a legitimate, amortized
// allocation that happens once per 1000 cycles, outside any steady-state
// window) and then measures allocations over 11 windows of 80 real ticks
// each. The 880 measured cycles span [2001, 2881): no bucket boundary is
// crossed, so a nonzero result means real per-cycle garbage.
func measureSteadyAllocs(t *testing.T, sys *System) float64 {
	t.Helper()
	// The measurement must exercise the genuine per-cycle path, not the
	// fast-forward jumps (those have their own accounting and are measured
	// by the engine benchmarks).
	sys.Engine.SetSkipAhead(false)
	if err := sys.RunTo(2001); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(10, func() {
		for i := 0; i < 80; i++ {
			sys.Engine.Step()
		}
	})
}

// TestSteadyStateZeroAlloc is the hot-path allocation contract: once a system
// is warm, ticking it allocates nothing — on any of the four architectures.
// This is what makes multi-hour sweeps GC-quiet (DESIGN.md "Performance").
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := Build(kind, allocGroup(), Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if avg := measureSteadyAllocs(t, sys); avg != 0 {
				t.Errorf("%s: steady-state tick allocates %.2f objects per 80-cycle window, want 0", kind, avg)
			}
		})
	}
}

// TestSteadyStateZeroAllocProfiled repeats the contract with full cycle
// attribution enabled: the observability probe charges every cycle to a
// category and feeds the latency histograms, and none of that may allocate
// either (the probe's buckets and histogram bins are fixed-size).
func TestSteadyStateZeroAllocProfiled(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := Build(kind, allocGroup(), Options{Seed: 5, Obs: obs.Options{Attribution: true}})
			if err != nil {
				t.Fatal(err)
			}
			if avg := measureSteadyAllocs(t, sys); avg != 0 {
				t.Errorf("%s: profiled steady-state tick allocates %.2f objects per 80-cycle window, want 0", kind, avg)
			}
		})
	}
}

// TestSteadyStateZeroAllocTelemetry repeats the contract with the telemetry
// sampler live. The 64-cycle window puts a boundary (a full sample: bucket
// deltas, histogram diffs, quantiles, ring-slot writes) inside every measured
// 80-tick span — sampling itself must be allocation-free, not just the
// between-boundary ticks.
func TestSteadyStateZeroAllocTelemetry(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := Build(kind, allocGroup(), Options{
				Seed:      5,
				Telemetry: &telemetry.Config{Window: 64},
			})
			if err != nil {
				t.Fatal(err)
			}
			if avg := measureSteadyAllocs(t, sys); avg != 0 {
				t.Errorf("%s: telemetry steady-state tick allocates %.2f objects per 80-cycle window, want 0", kind, avg)
			}
		})
	}
}

// TestSteadyStateZeroAllocTopo64 extends the contract to the headline
// clustered machine: 64 cores over 4 co-processor clusters with a
// latency/bandwidth-limited fabric. Routing, bandwidth accounting, the
// two-level repartition and any tenant migrations all happen inside the
// measured windows and none of it may allocate.
func TestSteadyStateZeroAllocTopo64(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := Build(kind, wideGroup(64), Options{
				Seed:     5,
				Topology: &coproc.Topology{Clusters: 4, HopLatency: 2, HopBandwidth: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			if avg := measureSteadyAllocs(t, sys); avg != 0 {
				t.Errorf("%s: 64-core clustered steady-state tick allocates %.2f objects per 80-cycle window, want 0", kind, avg)
			}
		})
	}
}

// TestSteadyStateZeroAllocTopo64Telemetry repeats the clustered contract with
// the windowed sampler live, including the per-cluster gauge series.
func TestSteadyStateZeroAllocTopo64Telemetry(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := Build(kind, wideGroup(64), Options{
				Seed:      5,
				Topology:  &coproc.Topology{Clusters: 4, HopLatency: 2, HopBandwidth: 8},
				Telemetry: &telemetry.Config{Window: 64},
			})
			if err != nil {
				t.Fatal(err)
			}
			if avg := measureSteadyAllocs(t, sys); avg != 0 {
				t.Errorf("%s: 64-core clustered telemetry tick allocates %.2f objects per 80-cycle window, want 0", kind, avg)
			}
		})
	}
}

// TestSteadyStateZeroAllocFaultPath covers the per-cycle path with a wired
// (but quiet) injector and an armed watchdog — the configuration the
// degradation sweep forks under. The injector's Poll and the watchdog's
// sampled progress scans must both be allocation-free.
func TestSteadyStateZeroAllocFaultPath(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := Build(kind, allocGroup(), Options{Seed: 5, WireInjector: true, StallCycles: 25_000})
			if err != nil {
				t.Fatal(err)
			}
			if avg := measureSteadyAllocs(t, sys); avg != 0 {
				t.Errorf("%s: fault-path steady-state tick allocates %.2f objects per 80-cycle window, want 0", kind, avg)
			}
		})
	}
}
