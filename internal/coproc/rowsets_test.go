package coproc_test

import (
	"fmt"
	"testing"

	"occamy/internal/arch"
	"occamy/internal/coproc"
	"occamy/internal/experiments"
	"occamy/internal/fault"
	"occamy/internal/workload"
)

// group64 is the 64-core scalability group with one repeat per kernel.
func group64() workload.CoSchedule {
	g := experiments.ScaleGroup(workload.NewRegistry(), 64)
	for _, w := range g.W {
		for _, k := range w.Phases {
			k.Repeats = 1
		}
	}
	return g
}

// topo64 is the clustered machine of the scalability experiment.
var topo64 = &coproc.Topology{Clusters: 4, HopLatency: experiments.ScaleHopLatency, HopBandwidth: experiments.ScaleHopBandwidth}

// gatedPair is a short two-core pair.
func gatedPair() workload.CoSchedule {
	r := workload.NewRegistry()
	dot := *r.Kernel("dotProd")
	dot.Elems, dot.Repeats = 2000, 2
	tri := *r.Kernel("wsm51")
	tri.Elems, tri.Repeats = 512, 2
	return workload.CoSchedule{Name: "gated", W: []*workload.Workload{
		{Name: "gated.dot", Phases: []*workload.Kernel{&dot}},
		{Name: "gated.tri", Phases: []*workload.Kernel{&tri}},
	}}
}

// TestNextWakeMatchesAllRows holds NextWake, which scans only the live rows,
// to the all-rows scan at every engine step of the clustered 64-core group
// (most rows of every cluster never hold work) and of a pair through a
// transient ExeBU failure, whose issue gates throttle Private and FTS (a
// shared gate makes every row live), on all four architectures.
func TestNextWakeMatchesAllRows(t *testing.T) {
	scenarios := []struct {
		name   string
		sched  workload.CoSchedule
		opts   arch.Options
		cycles uint64
	}{
		{"topo64", group64(), arch.Options{Seed: 5, Topology: topo64}, 6000},
		{"gated", gatedPair(), arch.Options{Seed: 7, Faults: []fault.Fault{{Kind: fault.ExeBU, Count: 2, At: 300, For: 3000}}}, 1 << 62},
	}
	for _, sc := range scenarios {
		for _, kind := range arch.Kinds {
			t.Run(fmt.Sprintf("%s/%s", sc.name, kind), func(t *testing.T) {
				sys, err := arch.Build(kind, sc.sched, sc.opts)
				if err != nil {
					t.Fatal(err)
				}
				var failure error
				steps := 0
				done := func() bool {
					now := sys.Engine.Cycle()
					for k, cp := range sys.Clusters {
						wantWake, wantOK := cp.NextWakeAllRows(now)
						if wake, ok := cp.NextWake(now); wake != wantWake || ok != wantOK {
							failure = fmt.Errorf("cycle %d cluster %d: NextWake = (%d, %v), all rows say (%d, %v)", now, k, wake, ok, wantWake, wantOK)
							return true
						}
					}
					steps++
					return sys.Done() || now >= sc.cycles
				}
				if _, err := sys.Engine.RunUntil(done, 50_000_000); err != nil {
					t.Fatal(err)
				}
				if failure != nil {
					t.Fatal(failure)
				}
				if steps < 100 {
					t.Fatalf("only %d steps checked", steps)
				}
			})
		}
	}
}

// outcome renders what a finished run produces: the result (attribution
// dereferenced), the counter registry and the lane-event log.
func outcome(sys *arch.System, res *arch.Result) string {
	flat := *res
	flat.Cores = append([]arch.CoreResult(nil), res.Cores...)
	attrs := make([]string, 0, len(flat.Cores))
	for i := range flat.Cores {
		if a := flat.Cores[i].Attribution; a != nil {
			attrs = append(attrs, fmt.Sprintf("%+v", *a))
		}
		flat.Cores[i].Attribution = nil
	}
	return fmt.Sprintf("res=%+v\nattr=%v\nstats=%v\nevents=%+v", &flat, attrs, sys.Stats.Snapshot(), sys.Clusters[0].LaneEvents())
}

func ringsAllocated(sys *arch.System) int {
	n := 0
	for _, cp := range sys.Clusters {
		n += cp.RingsAllocated()
	}
	return n
}

// TestCheckpointOnDemandRings checkpoints the clustered 64-core machine
// while most of its rows have never received an instruction, runs on until
// more rows allocate their pool rings, and restores: the restore must drop
// those rings again (a checkpoint taken right after it carries the original
// digest), and the run continued from it must match a straight run.
func TestCheckpointOnDemandRings(t *testing.T) {
	const early, later = 2, 3000
	for _, kind := range arch.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			opts := arch.Options{Seed: 3, Topology: topo64}
			straight, err := arch.Build(kind, group64(), opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := straight.Run(50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			want := outcome(straight, res)

			sys, err := arch.Build(kind, group64(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RunTo(early); err != nil {
				t.Fatal(err)
			}
			snap := sys.Checkpoint()
			rows := 64 * len(sys.Clusters)
			before := ringsAllocated(sys)
			if before*2 > rows {
				t.Fatalf("%d of %d rows have rings at cycle %d; the test needs most rows ring-less", before, rows, early)
			}
			if err := sys.RunTo(later); err != nil {
				t.Fatal(err)
			}
			if n := ringsAllocated(sys); n <= before {
				t.Fatalf("no row allocated a ring between cycles %d and %d (%d rings)", early, later, n)
			}
			if err := sys.RestoreCheckpoint(snap); err != nil {
				t.Fatal(err)
			}
			if n := ringsAllocated(sys); n != before {
				t.Fatalf("restore left %d rows with rings, the checkpoint had %d", n, before)
			}
			if again := sys.Checkpoint(); again.Digest() != snap.Digest() {
				t.Fatalf("re-taken checkpoint digest %#x, original %#x", again.Digest(), snap.Digest())
			}
			res, err = sys.Run(50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if got := outcome(sys, res); got != want {
				t.Errorf("restored run diverges from straight run\nstraight:\n%s\nrestored:\n%s", want, got)
			}
		})
	}
}
