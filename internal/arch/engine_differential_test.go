package arch

import (
	"fmt"
	"reflect"
	"testing"

	"occamy/internal/coproc"
	"occamy/internal/digest"
	"occamy/internal/obs"
	"occamy/internal/sim"
	"occamy/internal/workload"
)

// diffStats reports every counter whose value differs between two registry
// snapshots (missing keys read as zero, like sim.Stats itself).
func diffStats(a, b map[string]uint64) []string {
	var out []string
	seen := map[string]bool{}
	for k, v := range a {
		seen[k] = true
		if b[k] != v {
			out = append(out, fmt.Sprintf("%s: legacy=%d skip=%d", k, v, b[k]))
		}
	}
	for k, v := range b {
		if !seen[k] && v != 0 {
			out = append(out, fmt.Sprintf("%s: legacy=0 skip=%d", k, v))
		}
	}
	return out
}

// TestEngineSkipAheadBitIdentical is the hybrid engine's hard requirement:
// with skip-ahead enabled, every run must produce bit-identical cycle
// counts, statistics, cycle attribution and functional results to the
// legacy every-cycle path. Five workload pairs on all four architectures,
// both ways, advanced together in 1000-cycle steps: the full states must
// match at every step, and the results, diffed field by field, at the end.
func TestEngineSkipAheadBitIdentical(t *testing.T) {
	reg := workload.NewRegistry()
	pairs := append([]workload.CoSchedule{workload.MotivatingPair(reg)},
		workload.Figure10Pairs(reg)[:4]...)
	var totalSkipped uint64
	for _, pair := range pairs {
		pair := pair.Scaled(0.1)
		for _, kind := range Kinds {
			name := fmt.Sprintf("%s on %s", pair.Name, kind)
			build := func(legacy bool) *System {
				t.Helper()
				sys, err := Build(kind, pair, Options{
					Seed:       11,
					Obs:        obs.Options{Attribution: true},
					LegacyTick: legacy,
				})
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			legSys, skipSys := build(true), build(false)
			for at := uint64(1000); !legSys.Done() || !skipSys.Done(); at += 1000 {
				for _, sys := range []*System{legSys, skipSys} {
					if _, err := sys.Engine.RunUntil(func() bool { return sys.Done() || sys.Engine.Cycle() >= at }, at-sys.Engine.Cycle()); err != nil {
						t.Fatal(err)
					}
				}
				if d := stateDiff(legSys, skipSys); d != "" {
					t.Fatalf("%s: by cycle %d, skip-ahead state differs from the every-cycle path at %s", name, at, d)
				}
			}
			run := func(sys *System) *Result {
				t.Helper()
				res, err := sys.Run(400_000_000)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			legRes, skipRes := run(legSys), run(skipSys)

			if legSys.Engine.SkippedCycles() != 0 {
				t.Fatalf("%s: legacy run skipped %d cycles", name, legSys.Engine.SkippedCycles())
			}
			totalSkipped += skipSys.Engine.SkippedCycles()

			if l, s := legSys.Engine.Cycle(), skipSys.Engine.Cycle(); l != s {
				t.Errorf("%s: engine cycle legacy=%d skip=%d", name, l, s)
			}
			if diffs := diffStats(legSys.Stats.Snapshot(), skipSys.Stats.Snapshot()); len(diffs) > 0 {
				t.Errorf("%s: %d stats diverge, e.g. %s", name, len(diffs), diffs[0])
			}
			// Field-by-field Result diff: scalars first for readable
			// failures, then the full struct (covers per-core counters,
			// float rates computed from them, and the attribution).
			if legRes.Cycles != skipRes.Cycles {
				t.Errorf("%s: makespan legacy=%d skip=%d", name, legRes.Cycles, skipRes.Cycles)
			}
			if legRes.Utilization != skipRes.Utilization {
				t.Errorf("%s: utilization legacy=%v skip=%v", name, legRes.Utilization, skipRes.Utilization)
			}
			for c := range legRes.Cores {
				if !reflect.DeepEqual(legRes.Cores[c], skipRes.Cores[c]) {
					t.Errorf("%s: core %d results diverge:\nlegacy: %+v\nskip:   %+v",
						name, c, legRes.Cores[c], skipRes.Cores[c])
				}
			}
			if !reflect.DeepEqual(legRes, skipRes) {
				t.Errorf("%s: results diverge:\nlegacy: %+v\nskip:   %+v", name, legRes, skipRes)
			}
			// The conservation invariant must hold in both modes (collect
			// records any trim/conservation failure per core).
			for c := range skipRes.Cores {
				if e := skipRes.Cores[c].AttributionErr; e != "" {
					t.Errorf("%s: core %d attribution broken under skip: %s", name, c, e)
				}
			}
			// Functional outputs: both runs must match the host reference
			// (and, via the stats identity above, each other).
			if err := legSys.CheckResults(2e-3); err != nil {
				t.Errorf("%s: legacy functional check: %v", name, err)
			}
			if err := skipSys.CheckResults(2e-3); err != nil {
				t.Errorf("%s: skip functional check: %v", name, err)
			}
		}
	}
	if totalSkipped == 0 {
		t.Error("skip-ahead never engaged across any pair/architecture")
	}
}

// TestEngineSkipAheadTimelineIdentical pins the bulk timeline path: the
// busy-lane timelines (Figure 2's plots) must match point for point.
func TestEngineSkipAheadTimelineIdentical(t *testing.T) {
	reg := workload.NewRegistry()
	pair := workload.MotivatingPair(reg).Scaled(0.1)
	build := func(legacy bool) *System {
		sys, err := Build(Occamy, pair, Options{Seed: 11, LegacyTick: legacy})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(400_000_000); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	leg, skip := build(true), build(false)
	for c := 0; c < pair.Cores(); c++ {
		lp, sp := leg.Clusters[0].BusyTimeline(c), skip.Clusters[0].BusyTimeline(c)
		if len(lp) != len(sp) {
			t.Fatalf("core %d: timeline length legacy=%d skip=%d", c, len(lp), len(sp))
		}
		for i := range lp {
			if lp[i] != sp[i] {
				t.Errorf("core %d bucket %d: legacy=%v skip=%v", c, i, lp[i], sp[i])
			}
		}
	}
}

// TestEngineSkipAheadClusteredStorms pins skip-ahead to the every-cycle path
// where several clusters storm their shared vector cache in the same skipped
// window: the scale sweep's 8-core, 4-cluster VLS point, whose four clusters
// all retry against full MSHRs, two rows each, from cycle 62 on. Real ticks
// interleave the clusters on the cache port cycle by cycle, so the replay
// must too; replaying each cluster's window whole used to move the port's
// bandwidth meter at cycle 64 and end the run one cycle late. The full
// states must match at every comparison cycle and the results at the end.
func TestEngineSkipAheadClusteredStorms(t *testing.T) {
	sched := wideGroup(8).Scaled(0.25)
	opts := Options{Seed: 1, Topology: &coproc.Topology{Clusters: 4, HopLatency: 2, HopBandwidth: 8}}
	build := func(legacy bool) *System {
		o := opts
		o.LegacyTick = legacy
		sys, err := Build(VLS, sched, o)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	leg, skip := build(true), build(false)
	for _, at := range []uint64{60, 64, 72, 96, 160, 512, 2048} {
		for _, sys := range []*System{leg, skip} {
			if err := sys.RunTo(at); err != nil {
				t.Fatal(err)
			}
		}
		if d := stateDiff(leg, skip); d != "" {
			t.Fatalf("cycle %d: skip-ahead state differs from the every-cycle path at %s", at, d)
		}
	}
	if skip.Engine.SkippedCycles() == 0 {
		t.Fatal("skip-ahead never engaged")
	}
	legRes, err := leg.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	skipRes, err := skip.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legRes, skipRes) {
		t.Errorf("results diverge: legacy %d cycles, skip %d cycles", legRes.Cycles, skipRes.Cycles)
	}
}

// stateDiff returns the first field path where two systems at the same cycle
// differ in simulated state, or "". The engine's skip bookkeeping is left
// out, and expired holds are dropped from both first: a tracker drains
// lazily, so when it last drained depends on the execution strategy. The
// states are hashed first: Diff walks the functional memory through reflect,
// which costs far more than a digest.
func stateDiff(a, b *System) string {
	now := a.Engine.Cycle()
	for _, s := range []*System{a, b} {
		for _, cp := range s.Clusters {
			cp.ExpireHolds(now)
		}
	}
	sa, sb := a.withRegistries(a.state()), b.withRegistries(b.state())
	if sa.engine.Cycle() != sb.engine.Cycle() {
		return fmt.Sprintf("engine.cycle (%d vs %d)", sa.engine.Cycle(), sb.engine.Cycle())
	}
	sa.engine, sb.engine = sim.EngineState{}, sim.EngineState{}
	if digest.Sum(&sa) == digest.Sum(&sb) {
		return ""
	}
	return digest.Diff(&sa, &sb)
}
