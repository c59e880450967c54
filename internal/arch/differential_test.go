package arch

import (
	"testing"

	"occamy/internal/workload"
)

// idle returns a minimal co-runner.
func idle() *workload.Workload {
	return &workload.Workload{Name: "idle", Phases: []*workload.Kernel{{
		Name: "idle", Slots: []workload.LoadSlot{{Stream: 0}},
		Stmts: []workload.Stmt{{Out: 1, E: workload.Mul(workload.Slot(0), workload.Const(2))}},
		Elems: 64, Repeats: 1,
	}}}
}

// runMode compiles w in the given mode on kind and returns the system after
// completion, with functional outputs in memory.
func runMode(t *testing.T, kind Kind, w *workload.Workload) *System {
	t.Helper()
	sched := workload.CoSchedule{Name: w.Name, W: []*workload.Workload{w, idle()}}
	sys, err := Build(kind, sched, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(400_000_000); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestMultiVersionEquivalence is the §6.3 multi-version correctness check as
// a differential test: for every Table 3 kernel, the compiler's
// non-vectorized variant (ModeScalar), the fixed-length vector variant
// (Private) and the elastic variant (Occamy, with live VL reconfiguration)
// must all produce results matching the host reference.
func TestMultiVersionEquivalence(t *testing.T) {
	r := workload.NewRegistry()
	for _, name := range r.KernelNames() {
		k := *r.Kernel(name)
		// Shrink for speed; keep a non-multiple-of-strip trip count so
		// the remainder paths execute.
		k.Elems = 517
		if k.Repeats > 4 {
			k.Repeats = 4
		}
		w := &workload.Workload{Name: "dk/" + name, Phases: []*workload.Kernel{&k}}
		for _, kind := range []Kind{Private, Occamy} {
			sys := runMode(t, kind, w)
			if err := sys.Compiled[0].Phases[0].CheckResults(sys.Hier.Mem, 2e-3); err != nil {
				t.Errorf("%s on %s: %v", name, kind, err)
			}
		}
	}
}

// TestScalarVersionEquivalence exercises the §6.3 non-vectorized variant end
// to end: trip counts below the multi-version threshold make the runtime
// check take the scalar path, whose results must match the host reference
// (and, transitively, the vector path's).
func TestScalarVersionEquivalence(t *testing.T) {
	r := workload.NewRegistry()
	for _, name := range []string{"dotProd", "normL1", "normL2", "addWeight", "rgb2gray", "wsm5_wi", "rho_eos2", "select_atoms4"} {
		k := *r.Kernel(name)
		k.Elems = 97 // below ScalarThreshold: the runtime picks the scalar version
		k.Repeats = 2
		w := &workload.Workload{Name: "ds/" + name, Phases: []*workload.Kernel{&k}}
		sys := runMode(t, Private, w)
		if err := sys.Compiled[0].Phases[0].CheckResults(sys.Hier.Mem, 2e-3); err != nil {
			t.Errorf("%s scalar version: %v", name, err)
		}
		// The scalar version must not have touched the co-processor.
		if sys.Clusters[0].ComputeIssued(0) != 0 {
			t.Errorf("%s: scalar version issued %d vector µops", name, sys.Clusters[0].ComputeIssued(0))
		}
	}
}

// TestElasticUnderForcedChurn forces frequent repartitioning by co-running
// two multi-phase workloads with many short phases, and checks functional
// correctness under the resulting reconfiguration churn (the §6.4
// obligations under stress).
func TestElasticUnderForcedChurn(t *testing.T) {
	r := workload.NewRegistry()
	mk := func(name string, kernels ...string) *workload.Workload {
		w := &workload.Workload{Name: name}
		for _, kn := range kernels {
			k := *r.Kernel(kn)
			k.Elems = 700
			k.Repeats = 1
			w.Phases = append(w.Phases, &k)
		}
		return w
	}
	// Alternating memory/compute phases on both cores: every boundary
	// triggers a repartition, and the peers' monitors chase the plan.
	w0 := mk("churn0", "step3d_uv2", "wsm51", "rho_eos4", "set_vbc1", "sff2")
	w1 := mk("churn1", "wsm52", "rho_eos6", "fitLine2D", "step2d1", "rgb2hsv")
	sched := workload.CoSchedule{Name: "churn", W: []*workload.Workload{w0, w1}}
	sys, err := Build(Occamy, sched, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(400_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckResults(2e-3); err != nil {
		t.Fatal(err)
	}
	if res.Repartitions < 10 {
		t.Fatalf("churn run repartitioned only %d times", res.Repartitions)
	}
	if res.Reconfigures < 10 {
		t.Fatalf("churn run reconfigured only %d times", res.Reconfigures)
	}
}

// TestReductionAcrossManyVLChanges pins the §6.4 reduction fix-up: a long
// dot product co-running against a phase-churning peer must survive every
// vector-length change with its partial sums intact.
func TestReductionAcrossManyVLChanges(t *testing.T) {
	r := workload.NewRegistry()
	dot := *r.Kernel("dotProd")
	dot.Elems = 6000
	dot.Repeats = 1
	w0 := &workload.Workload{Name: "red", Phases: []*workload.Kernel{&dot}}
	// The peer flips between compute- and memory-intensive phases,
	// changing the dot product's allocation repeatedly mid-loop.
	mkPeer := func() *workload.Workload {
		w := &workload.Workload{Name: "flipper"}
		for i := 0; i < 6; i++ {
			var k workload.Kernel
			if i%2 == 0 {
				k = *r.Kernel("wsm51")
				k.Elems, k.Repeats = 256, 2
			} else {
				k = *r.Kernel("rho_eos6")
				k.Elems, k.Repeats = 512, 1
			}
			w.Phases = append(w.Phases, &k)
		}
		return w
	}
	sched := workload.CoSchedule{Name: "redchurn", W: []*workload.Workload{w0, mkPeer()}}
	sys, err := Build(Occamy, sched, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(400_000_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckResults(2e-3); err != nil {
		t.Fatalf("reduction lost across VL changes: %v", err)
	}
}

// TestAllFourArchitecturesAgreeFunctionally cross-checks final memory
// contents between architectures: for store-only workloads the results must
// be bit-identical (same program-order float32 operations), independent of
// timing policy.
func TestAllFourArchitecturesAgreeFunctionally(t *testing.T) {
	r := workload.NewRegistry()
	k := *r.Kernel("rgb2gray")
	k.Elems = 600
	k.Repeats = 2
	w := &workload.Workload{Name: "agree", Phases: []*workload.Kernel{&k}}
	var ref []float32
	for _, kind := range Kinds {
		sys := runMode(t, kind, w)
		ph := sys.Compiled[0].Phases[0]
		var base uint64
		for id, s := range ph.Streams {
			if s.Output {
				base = s.Base
				_ = id
			}
		}
		got := sys.Hier.Mem.ReadF32Slice(base+4*4, 600)
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s diverges from Private at elem %d: %v vs %v", kind, i, got[i], ref[i])
			}
		}
	}
}
