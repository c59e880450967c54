package arch_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"occamy/internal/arch"
	"occamy/internal/coproc"
	"occamy/internal/experiments"
	"occamy/internal/fault"
	"occamy/internal/obs"
	"occamy/internal/traffic"
	"occamy/internal/workload"
)

// pinnedOutcomes are the recorded outcome digests of the runs
// TestPinnedOutcomes replays. The differential suites compare two execution
// paths of the same code, so a change that moves both paths the same way
// passes them; these constants pin the simulated numbers themselves. A
// change to the simulator's timing model must update them deliberately (and
// say why); a performance change must leave them alone.
var pinnedOutcomes = map[string]uint64{
	"fig10/cv:WL9+WL4/FTS":         0x32ea4e71cc958655,
	"fig10/cv:WL9+WL4/Occamy":      0x51c0578a7f8dc215,
	"fig10/cv:WL9+WL4/Private":     0x2822ce88a718572b,
	"fig10/cv:WL9+WL4/VLS":         0xd28c1a1a5eec1afb,
	"fig10/spec:WL1+WL13/FTS":      0xb3f64b264453bb13,
	"fig10/spec:WL1+WL13/Occamy":   0x0fcf67c6535d4514,
	"fig10/spec:WL1+WL13/Private":  0x9ce31008eda5fda6,
	"fig10/spec:WL1+WL13/VLS":      0x44e21bbcb46dfcee,
	"fig10/spec:WL10+WL16/FTS":     0x603b079622cdc1ee,
	"fig10/spec:WL10+WL16/Occamy":  0x9302e6b95728ccab,
	"fig10/spec:WL10+WL16/Private": 0x38425a11d0d37f7e,
	"fig10/spec:WL10+WL16/VLS":     0x390fd89ce87d1265,
	"fig10/spec:WL12+WL19/FTS":     0xffa2d174f668a18e,
	"fig10/spec:WL12+WL19/Occamy":  0xced06fbe4c19518a,
	"fig10/spec:WL12+WL19/Private": 0x5fce134fefb01951,
	"fig10/spec:WL12+WL19/VLS":     0x65302e48d5f53081,
	"fig10/spec:WL8+WL17/FTS":      0xd50a0cebbe61f96a,
	"fig10/spec:WL8+WL17/Occamy":   0x9bc2b29f7c1eff79,
	"fig10/spec:WL8+WL17/Private":  0xd295a6d98fa0d61e,
	"fig10/spec:WL8+WL17/VLS":      0xd55f6e54f9f16b59,
	"scale64/FTS":                  0x957454423429f86e,
	"scale64/Occamy":               0x3e8a4098eb7cf2bb,
	"scale64/Private":              0xb66d332ed630c079,
	"scale64/VLS":                  0x8ab7228a3da03856,
	"fork/exebu:1@25000/FTS":       0xca3df08cffe98a50,
	"fork/exebu:1@25000/Occamy":    0xf2d9aced74513747,
	"fork/exebu:1@25000/Private":   0xc5dcef9eec66b63d,
	"fork/exebu:1@25000/VLS":       0x4fc6a6d709673693,
	"traffic/FTS":                  0x8d18f4c122f88ce8,
	"traffic/Occamy":               0x0393bd0bc4819f73,
	"traffic/Private":              0x98b886ed86630123,
	"traffic/VLS":                  0xb8236bef4d561d93,
}

// outcomeDigest folds everything a run observably produces into one word:
// the full Result, the per-core cycle attribution (a pointer field, so it
// is dereferenced separately) and the complete counter registry (fmt prints
// maps in key order).
func outcomeDigest(sys *arch.System, res any, cores []arch.CoreResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "res=%+v\n", res)
	for c := range cores {
		if a := cores[c].Attribution; a != nil {
			fmt.Fprintf(h, "attr%d=%+v\n", c, *a)
		}
	}
	fmt.Fprintf(h, "stats=%v\n", sys.Stats.Snapshot())
	return h.Sum64()
}

// resultDigest digests a finished arch run; the attribution pointers are
// cleared from the printed copy so the digest holds values, not addresses.
func resultDigest(sys *arch.System, res *arch.Result) uint64 {
	flat := *res
	flat.Cores = append([]arch.CoreResult(nil), res.Cores...)
	for c := range flat.Cores {
		flat.Cores[c].Attribution = nil
	}
	return outcomeDigest(sys, &flat, res.Cores)
}

// TestPinnedOutcomes replays a fixed set of runs with attribution on and
// compares each one's outcome digest with its recorded constant. On all four
// architectures it runs five Figure 10 pairs at full scale, the
// 64-core/4-cluster scale group, a faulted checkpoint fork and a traffic
// spec.
func TestPinnedOutcomes(t *testing.T) {
	observed := arch.Options{Seed: 11, Obs: obs.Options{Attribution: true}}
	got := map[string]uint64{}
	run := func(name string, kind arch.Kind, sched workload.CoSchedule, opts arch.Options) {
		sys, err := arch.Build(kind, sched, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sys.Run(400_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = resultDigest(sys, res)
	}

	reg := workload.NewRegistry()
	pairs := workload.Figure10Pairs(reg)
	for _, i := range []int{0, 5, 10, 15, 20} {
		for _, kind := range arch.Kinds {
			run(fmt.Sprintf("fig10/%s/%s", pairs[i].Name, kind), kind, pairs[i], observed)
		}
	}

	group := experiments.ScaleGroup(reg, 64)
	for _, w := range group.W {
		for _, k := range w.Phases {
			k.Repeats = 1
		}
	}
	clustered := observed
	clustered.Topology = &coproc.Topology{
		Clusters:     4,
		HopLatency:   experiments.ScaleHopLatency,
		HopBandwidth: experiments.ScaleHopBandwidth,
	}
	for _, kind := range arch.Kinds {
		run("scale64/"+kind.String(), kind, group, clustered)
	}

	// A campaign point: warm up fault-free, checkpoint, then fork with a
	// unit failure scheduled past the checkpoint.
	const spec = "exebu:1@25000"
	faults, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	forked := observed
	forked.WireInjector = true
	ts, err := traffic.ParseSpec("poisson:load=2,tenants=3,cores=2,horizon=12000,slice=400,elems=384,repeats=1,churn=900:1300")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range arch.Kinds {
		sys, err := arch.Build(kind, workload.MotivatingPair(reg), forked)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunTo(20_000); err != nil {
			t.Fatal(err)
		}
		if err := sys.RestoreCheckpoint(sys.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		sys.SetFaultSchedule(faults)
		res, err := sys.Run(400_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recoveries) == 0 {
			t.Fatalf("fork on %s: %s never applied", kind, spec)
		}
		got["fork/"+spec+"/"+kind.String()] = resultDigest(sys, res)

		sc, err := traffic.Build(kind, ts, observed)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Run(sc.DefaultBudget()); err != nil {
			t.Fatal(err)
		}
		tres, err := sc.Sys.FinishRun(nil)
		if err != nil {
			t.Fatal(err)
		}
		if tres.Cores[0].Attribution == nil {
			t.Fatal("traffic run has no attribution")
		}
		got["traffic/"+kind.String()] = outcomeDigest(sc.Sys, sc.BuildReport(), tres.Cores)
	}

	for name, want := range pinnedOutcomes {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: not run", name)
		} else if g != want {
			t.Errorf("%s: outcome digest %#016x, recorded %#016x", name, g, want)
		}
	}
	for name := range got {
		if _, ok := pinnedOutcomes[name]; !ok {
			t.Errorf("%s: run has no recorded digest", name)
		}
	}
}
