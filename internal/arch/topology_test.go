package arch

import (
	"fmt"
	"reflect"
	"testing"

	"occamy/internal/coproc"
	"occamy/internal/fault"
	"occamy/internal/obs"
	"occamy/internal/telemetry"
	"occamy/internal/workload"
)

// fourCoreGroup returns the first §7.6 four-core schedule, scaled for test
// runtimes.
func fourCoreGroup() workload.CoSchedule {
	reg := workload.NewRegistry()
	return workload.FourCoreGroups(reg)[0].Scaled(0.1)
}

// runTopo builds and runs a system, returning it with its result.
func runTopo(t *testing.T, kind Kind, sched workload.CoSchedule, opts Options) (*System, *Result) {
	t.Helper()
	sys, err := Build(kind, sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(400_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

// TestTopologySingleClusterBitIdentical is the refactor's first hard
// invariant: wrapping the machine in an explicit 1-cluster topology (cores
// wired through the routed Complex instead of directly to the co-processor)
// must not change a single observable — cycles, every counter, per-core
// results, attribution, telemetry digest — on any architecture, with
// skip-ahead on.
func TestTopologySingleClusterBitIdentical(t *testing.T) {
	sched := fourCoreGroup()
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			base := Options{
				Seed:      11,
				Obs:       obs.Options{Attribution: true},
				Telemetry: &telemetry.Config{Window: 512},
			}
			clustered := base
			clustered.Topology = &coproc.Topology{Clusters: 1}
			flatSys, flatRes := runTopo(t, kind, sched, base)
			topoSys, topoRes := runTopo(t, kind, sched, clustered)

			if f, c := flatSys.Engine.Cycle(), topoSys.Engine.Cycle(); f != c {
				t.Errorf("engine cycle flat=%d clustered=%d", f, c)
			}
			if diffs := diffStats(flatSys.Stats.Snapshot(), topoSys.Stats.Snapshot()); len(diffs) > 0 {
				t.Errorf("%d stats diverge, e.g. %s", len(diffs), diffs[0])
			}
			if !reflect.DeepEqual(flatRes, topoRes) {
				t.Errorf("results diverge:\nflat:      %+v\nclustered: %+v", flatRes, topoRes)
			}
			if f, c := flatSys.Tele.Digest(), topoSys.Tele.Digest(); f != c {
				t.Errorf("telemetry digest flat=%#x clustered=%#x", f, c)
			}
			for c := range flatRes.Cores {
				if e := topoRes.Cores[c].AttributionErr; e != "" {
					t.Errorf("core %d attribution broken under topology: %s", c, e)
				}
			}
			if err := topoSys.CheckResults(2e-3); err != nil {
				t.Errorf("clustered functional check: %v", err)
			}
		})
	}
}

// TestTopologySingleClusterCheckpointIdentical repeats the invariant through
// a checkpoint fork: snapshot both machines mid-run, finish, rewind, finish
// again — the forked runs must match each other and the straight runs.
func TestTopologySingleClusterCheckpointIdentical(t *testing.T) {
	sched := fourCoreGroup()
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(topo *coproc.Topology) (uint64, uint64, map[string]uint64) {
				t.Helper()
				sys, err := Build(kind, sched, Options{
					Seed:      11,
					Topology:  topo,
					Telemetry: &telemetry.Config{Window: 512},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.RunTo(2000); err != nil {
					t.Fatal(err)
				}
				st := sys.Checkpoint()
				if _, err := sys.Run(400_000_000); err != nil {
					t.Fatal(err)
				}
				first := sys.Engine.Cycle()
				if err := sys.RestoreCheckpoint(st); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(400_000_000); err != nil {
					t.Fatal(err)
				}
				if sys.Engine.Cycle() != first {
					t.Fatalf("forked run ended at %d, straight run at %d", sys.Engine.Cycle(), first)
				}
				return first, sys.Tele.Digest(), sys.Stats.Snapshot()
			}
			fCyc, fDig, fStats := run(nil)
			cCyc, cDig, cStats := run(&coproc.Topology{Clusters: 1})
			if fCyc != cCyc {
				t.Errorf("cycles flat=%d clustered=%d", fCyc, cCyc)
			}
			if fDig != cDig {
				t.Errorf("telemetry digest flat=%#x clustered=%#x", fDig, cDig)
			}
			if diffs := diffStats(fStats, cStats); len(diffs) > 0 {
				t.Errorf("%d stats diverge, e.g. %s", len(diffs), diffs[0])
			}
		})
	}
}

// TestTopologyMultiClusterRuns exercises the genuinely clustered machine: 2
// clusters over 4 cores, nonzero hop latency, on every architecture. The runs
// must complete, verify functionally, and report one telemetry series per
// cluster.
func TestTopologyMultiClusterRuns(t *testing.T) {
	sched := fourCoreGroup()
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			sys, res := runTopo(t, kind, sched, Options{
				Seed:      11,
				Topology:  &coproc.Topology{Clusters: 2, HopLatency: 2},
				Obs:       obs.Options{Attribution: true},
				Telemetry: &telemetry.Config{Window: 512},
			})
			if err := sys.CheckResults(2e-3); err != nil {
				t.Errorf("functional check: %v", err)
			}
			if got := len(sys.Clusters); got != 2 {
				t.Fatalf("built %d clusters, want 2", got)
			}
			for c := range res.Cores {
				if e := res.Cores[c].AttributionErr; e != "" {
					t.Errorf("core %d attribution broken: %s", c, e)
				}
			}
			var w telemetry.Window
			if !sys.Tele.CopyWindow(0, &w) {
				t.Fatal("no telemetry windows retained")
			}
			if len(w.Clusters) != 2 {
				t.Fatalf("telemetry window has %d cluster series, want 2", len(w.Clusters))
			}
			if total := w.Clusters[0].TotalBUs + w.Clusters[1].TotalBUs; total != w.TotalBUs {
				t.Errorf("cluster TotalBUs %d+%d != machine %d",
					w.Clusters[0].TotalBUs, w.Clusters[1].TotalBUs, w.TotalBUs)
			}
		})
	}
}

// TestTopologyFabricLatencyCosts pins the fabric model's direction on the
// architecture without adaptive feedback: a Private machine (fixed VLs, no
// lane-manager reactions) with nonzero hop latency can never beat the same
// machine with free routing. The elastic architectures are checked only for
// a timing effect — their lane managers react to the shifted timings, so the
// makespan is not monotone in the hop cost.
func TestTopologyFabricLatencyCosts(t *testing.T) {
	sched := fourCoreGroup()
	_, free := runTopo(t, Private, sched, Options{
		Seed: 11, Topology: &coproc.Topology{Clusters: 2},
	})
	_, slow := runTopo(t, Private, sched, Options{
		Seed: 11, Topology: &coproc.Topology{Clusters: 2, HopLatency: 16},
	})
	if slow.Cycles < free.Cycles {
		t.Errorf("hop latency sped Private up: free=%d slow=%d", free.Cycles, slow.Cycles)
	}
	if slow.Cycles == free.Cycles {
		t.Errorf("16-cycle hop latency had no effect on Private (both %d cycles)", free.Cycles)
	}
	_, oFree := runTopo(t, Occamy, sched, Options{
		Seed: 11, Topology: &coproc.Topology{Clusters: 2},
	})
	_, oSlow := runTopo(t, Occamy, sched, Options{
		Seed: 11, Topology: &coproc.Topology{Clusters: 2, HopLatency: 16},
	})
	if oFree.Cycles == oSlow.Cycles {
		t.Errorf("16-cycle hop latency had no observable effect on Occamy (both %d cycles)", oFree.Cycles)
	}
}

// TestTopologyFabricBandwidth saturates the fabric: with one accepted
// transmission per cluster per cycle, 4 cores funneling into 2 clusters must
// hit refusals, and the retry cycles must stay inside the attribution
// conservation invariant (they land in the dispatch-full bucket).
func TestTopologyFabricBandwidth(t *testing.T) {
	sched := fourCoreGroup()
	sys, res := runTopo(t, Occamy, sched, Options{
		Seed:     11,
		Topology: &coproc.Topology{Clusters: 2, HopBandwidth: 1},
		Obs:      obs.Options{Attribution: true},
	})
	if res.FabricRefusals == 0 {
		t.Error("bandwidth-1 fabric refused nothing")
	}
	if err := sys.CheckResults(2e-3); err != nil {
		t.Errorf("functional check: %v", err)
	}
	for c := range res.Cores {
		if e := res.Cores[c].AttributionErr; e != "" {
			t.Errorf("core %d attribution broken under fabric contention: %s", c, e)
		}
	}
}

// imbalancedGroup puts two long-running workloads on cluster 0's cores and
// two tiny ones on cluster 1's, so cluster 1 drains early and the global
// balance pass sees a 2-tenant imbalance — the migration trigger.
func imbalancedGroup() workload.CoSchedule {
	r := workload.NewRegistry()
	long := *r.Kernel("dotProd")
	long.Elems, long.Repeats = 2000, 40
	tiny := *r.Kernel("dotProd")
	tiny.Elems, tiny.Repeats = 64, 1
	mk := func(name string, k workload.Kernel) *workload.Workload {
		return &workload.Workload{Name: name, Phases: []*workload.Kernel{&k}}
	}
	return workload.CoSchedule{Name: "imbalanced", W: []*workload.Workload{
		mk("long0", long), mk("long1", long), mk("tiny2", tiny), mk("tiny3", tiny),
	}}
}

// TestTopologyMigration drives an Occamy machine into a cross-cluster tenant
// migration and checks the run stays functionally correct afterwards.
func TestTopologyMigration(t *testing.T) {
	sys, res := runTopo(t, Occamy, imbalancedGroup(), Options{
		Seed:     7,
		Topology: &coproc.Topology{Clusters: 2},
	})
	if res.Migrations == 0 {
		t.Error("imbalanced 2-cluster run migrated nothing")
	}
	if err := sys.CheckResults(2e-3); err != nil {
		t.Errorf("functional check after migration: %v", err)
	}
}

// TestTopologyClusterScopedFaults pins the fault-targeting semantics:
// exebu:clK fails units only in shard K, and an out-of-range cluster is a
// build error naming the topology.
func TestTopologyClusterScopedFaults(t *testing.T) {
	sched := fourCoreGroup()
	fs, err := fault.ParseSpec("exebu:cl1:2@3000+100000000")
	if err != nil {
		t.Fatal(err)
	}
	sys, res := runTopo(t, Occamy, sched, Options{
		Seed:     11,
		Topology: &coproc.Topology{Clusters: 2},
		Faults:   fs,
	})
	if got := sys.Clusters[0].Tbl().Failed(); got != 0 {
		t.Errorf("cluster 0 has %d failed BUs, fault targeted cluster 1", got)
	}
	if got := sys.Clusters[1].Tbl().Failed(); got != 2 {
		t.Errorf("cluster 1 has %d failed BUs, want 2", got)
	}
	if len(res.Recoveries) != 1 {
		t.Errorf("recorded %d recoveries, want 1", len(res.Recoveries))
	}

	_, err = Build(Occamy, sched, Options{
		Seed:     11,
		Topology: &coproc.Topology{Clusters: 2},
		Faults:   mustParse(t, "exebu:cl5@3000+1000"),
	})
	if err == nil {
		t.Error("cluster 5 fault on a 2-cluster topology built without error")
	}
}

func mustParse(t *testing.T, spec string) []fault.Fault {
	t.Helper()
	fs, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestTopologyValidationErrors covers the build-time topology checks with
// their actionable messages.
func TestTopologyValidationErrors(t *testing.T) {
	sched := fourCoreGroup()
	cases := []struct {
		name string
		topo coproc.Topology
	}{
		{"zero clusters", coproc.Topology{Clusters: 0}},
		{"indivisible cores", coproc.Topology{Clusters: 3}},
		{"negative bandwidth", coproc.Topology{Clusters: 2, HopBandwidth: -1}},
		{"huge hop latency", coproc.Topology{Clusters: 2, HopLatency: coproc.MaxHopLatency + 1}},
	}
	for _, tc := range cases {
		topo := tc.topo
		if _, err := Build(Occamy, sched, Options{Seed: 11, Topology: &topo}); err == nil {
			t.Errorf("%s: Build succeeded, want error", tc.name)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}

// TestTopologyCheckpointFork forks a genuinely clustered run (migrations,
// fabric latency) from a mid-run checkpoint and requires the fork to be
// bit-identical to the straight run — the second hard invariant's clustered
// counterpart.
func TestTopologyCheckpointFork(t *testing.T) {
	for _, kind := range []Kind{Occamy, FTS} {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := Build(kind, imbalancedGroup(), Options{
				Seed:      7,
				Topology:  &coproc.Topology{Clusters: 2, HopLatency: 2},
				Telemetry: &telemetry.Config{Window: 512},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RunTo(2500); err != nil {
				t.Fatal(err)
			}
			st := sys.Checkpoint()
			if _, err := sys.Run(400_000_000); err != nil {
				t.Fatal(err)
			}
			cycles, digest := sys.Engine.Cycle(), sys.Tele.Digest()
			stats := sys.Stats.Snapshot()
			if err := sys.RestoreCheckpoint(st); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(400_000_000); err != nil {
				t.Fatal(err)
			}
			if got := sys.Engine.Cycle(); got != cycles {
				t.Errorf("forked run ended at %d, straight at %d", got, cycles)
			}
			if got := sys.Tele.Digest(); got != digest {
				t.Errorf("forked telemetry digest %#x, straight %#x", got, digest)
			}
			if diffs := diffStats(stats, sys.Stats.Snapshot()); len(diffs) > 0 {
				t.Errorf("%d stats diverge after fork, e.g. %s", len(diffs), diffs[0])
			}
		})
	}
}

// TestTopologySkipAheadClustered runs the skip-ahead differential on the
// clustered machine: legacy every-cycle ticking and fast-forwarding must stay
// bit-identical with routing, hop latency and migrations in play.
func TestTopologySkipAheadClustered(t *testing.T) {
	sched := imbalancedGroup()
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(legacy bool) (*System, *Result) {
				t.Helper()
				return runTopo(t, kind, sched, Options{
					Seed:       7,
					Topology:   &coproc.Topology{Clusters: 2, HopLatency: 2},
					LegacyTick: legacy,
					Obs:        obs.Options{Attribution: true},
				})
			}
			legSys, legRes := run(true)
			skipSys, skipRes := run(false)
			if l, s := legSys.Engine.Cycle(), skipSys.Engine.Cycle(); l != s {
				t.Errorf("engine cycle legacy=%d skip=%d", l, s)
			}
			if diffs := diffStats(legSys.Stats.Snapshot(), skipSys.Stats.Snapshot()); len(diffs) > 0 {
				t.Errorf("%d stats diverge, e.g. %s", len(diffs), diffs[0])
			}
			if !reflect.DeepEqual(legRes, skipRes) {
				t.Errorf("results diverge:\nlegacy: %+v\nskip:   %+v", legRes, skipRes)
			}
		})
	}
}

// TestTopologyScalesTo64Cores builds the headline machine — 64 cores over 4
// clusters — on every architecture and runs it briefly: construction, ticking
// and the per-cluster telemetry all have to hold up at the target scale.
func TestTopologyScalesTo64Cores(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core build in -short mode")
	}
	sched := wideGroup(64)
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := Build(kind, sched, Options{
				Seed:      11,
				Topology:  &coproc.Topology{Clusters: 4, HopLatency: 2},
				Telemetry: &telemetry.Config{Window: 1024},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RunTo(5000); err != nil {
				t.Fatal(err)
			}
			var w telemetry.Window
			if !sys.Tele.CopyWindow(0, &w) {
				t.Fatal("no telemetry windows retained")
			}
			if len(w.Clusters) != 4 {
				t.Fatalf("telemetry window has %d cluster series, want 4", len(w.Clusters))
			}
		})
	}
}

// wideGroup builds an n-core schedule by cycling a few Table 3 kernels with
// varied per-core trip counts — wide enough for the 64-core machines without
// the full registry's runtimes.
func wideGroup(n int) workload.CoSchedule {
	r := workload.NewRegistry()
	names := []string{"dotProd", "wsm51", "rho_eos1", "rgb2hsv"}
	var ws []*workload.Workload
	for c := 0; c < n; c++ {
		k := *r.Kernel(names[c%len(names)])
		k.Elems = 512 + 64*(c%4)
		k.Repeats = 20
		ws = append(ws, &workload.Workload{
			Name:   fmt.Sprintf("wide%d", c),
			Phases: []*workload.Kernel{&k},
		})
	}
	return workload.CoSchedule{Name: fmt.Sprintf("wide%d", n), W: ws}
}
