package arch

import (
	"testing"

	"occamy/internal/workload"
)

// TestMonitorPeriodFunctionalEquivalence checks that the Fig. 9 monitor's
// polling period is a pure performance knob: results are identical (same
// program-order float32 operations) for any period.
func TestMonitorPeriodFunctionalEquivalence(t *testing.T) {
	r := workload.NewRegistry()
	sched := workload.MotivatingPair(r).Scaled(0.2)
	var ref []float32
	for _, period := range []int{1, 3, 16, 128} {
		sys, err := Build(Occamy, sched, Options{Seed: 7, MonitorPeriod: period})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(100_000_000); err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		if err := sys.CheckResults(2e-3); err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		ph := sys.Compiled[1].Phases[0]
		var base uint64
		for _, s := range ph.Streams {
			if s.Output {
				base = s.Base
			}
		}
		got := sys.Hier.Mem.ReadF32Slice(base+16, 256)
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("period %d diverges at elem %d", period, i)
			}
		}
	}
}

// TestDefaultVLVariantsAreCorrect checks the compiler-selected default
// vector length only affects timing, never results.
func TestDefaultVLVariantsAreCorrect(t *testing.T) {
	r := workload.NewRegistry()
	sched := workload.CaseStudyPair(r, 1).Scaled(0.15)
	for _, d := range []int{1, 2, 3} {
		sys, err := Build(Occamy, sched, Options{Seed: 7, DefaultVL: d})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(100_000_000); err != nil {
			t.Fatalf("default %d: %v", d, err)
		}
		if err := sys.CheckResults(2e-3); err != nil {
			t.Fatalf("default %d: %v", d, err)
		}
	}
}

// TestCustomExeBUCount runs on a non-default lane budget (12 granules) to
// exercise the scaling path of §4.2.1.
func TestCustomExeBUCount(t *testing.T) {
	r := workload.NewRegistry()
	sched := workload.MotivatingPair(r).Scaled(0.15)
	for _, kind := range Kinds {
		sys, err := Build(kind, sched, Options{Seed: 7, ExeBUs: 12})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := sys.Run(100_000_000); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := sys.CheckResults(2e-3); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// TestVLSStaticVLOverride pins the StaticVLs option used by the Figure 14
// lane sweeps.
func TestVLSStaticVLOverride(t *testing.T) {
	r := workload.NewRegistry()
	sched := workload.MotivatingPair(r).Scaled(0.15)
	sys, err := Build(VLS, sched, Options{Seed: 7, StaticVLs: []int{6, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Clusters[0].VL(0) != 6 || sys.Clusters[0].VL(1) != 2 {
		t.Fatalf("override not applied: VLs = %d/%d", sys.Clusters[0].VL(0), sys.Clusters[0].VL(1))
	}
	if _, err := sys.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckResults(2e-3); err != nil {
		t.Fatal(err)
	}
}

// TestSeedIndependentTiming pins the design property that timing is
// data-independent (kernels have no data-dependent branches), which the
// public API relies on for reproducibility claims.
func TestSeedIndependentTiming(t *testing.T) {
	r := workload.NewRegistry()
	sched := workload.CaseStudyPair(r, 4).Scaled(0.15)
	var cycles uint64
	for _, seed := range []uint64{1, 42, 31337} {
		sys, err := Build(Occamy, sched, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if cycles == 0 {
			cycles = res.Cycles
		} else if res.Cycles != cycles {
			t.Fatalf("seed %d changed timing: %d vs %d", seed, res.Cycles, cycles)
		}
	}
}
