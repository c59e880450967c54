package coproc_test

import (
	"fmt"
	"reflect"
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
// to the scan of every row a cluster hosts at every engine step of the
// clustered 64-core group and of a pair through a transient ExeBU failure,
// whose issue gates throttle Private and FTS (a shared gate makes every home
// row live), on all four architectures.
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
						wantWake, wantOK := cp.NextWakeHomeRows(now)
						if wake, ok := cp.NextWake(now); wake != wantWake || ok != wantOK {
							failure = fmt.Errorf("cycle %d cluster %d: NextWake = (%d, %v), the home rows say (%d, %v)", now, k, wake, ok, wantWake, wantOK)
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

// checkRows verifies the machine has exactly one row per core: every
// cluster sees the same row object for core c, the one in rows when given,
// and only c's home cluster hosts it.
func checkRows(t *testing.T, sys *arch.System, rows []any) {
	t.Helper()
	distinct := map[any]bool{}
	for c := range sys.Cores {
		for k, cp := range sys.Clusters {
			distinct[cp.Row(c)] = true
			if rows != nil && cp.Row(c) != rows[c] {
				t.Fatalf("cluster %d holds a different row object for core %d", k, c)
			}
			if cp.Hosts(c) != (sys.Cplx.Home(c) == k) {
				t.Fatalf("cluster %d hosts core %d: %v, but its home is cluster %d", k, c, cp.Hosts(c), sys.Cplx.Home(c))
			}
		}
	}
	if len(distinct) != len(sys.Cores) {
		t.Fatalf("%d clusters hold %d rows for %d cores", len(sys.Clusters), len(distinct), len(sys.Cores))
	}
}

// rowStates counts the co-processor rows a snapshot holds: the values of
// coproc's rowState type reachable from v.
func rowStates(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Struct:
		if v.Type().Name() == "rowState" && v.Type().PkgPath() == "occamy/internal/coproc" {
			return 1
		}
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += rowStates(v.Field(i))
		}
		return n
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k != reflect.Struct && k != reflect.Pointer {
			return 0 // no row among scalars: skip the memory images
		}
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += rowStates(v.Index(i))
		}
		return n
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return rowStates(v.Elem())
	}
	return 0
}

// TestOneRowPerCore pins the row model on the clustered 64-core machine:
// its four clusters share one row per core, a snapshot holds each row once,
// a migrated core keeps its row object, and a restore onto the machine after
// it ran on (past Occamy's migrations) re-homes every row: the restored
// machine re-checkpoints to the original digest and finishes exactly like a
// straight run.
func TestOneRowPerCore(t *testing.T) {
	const early, later = 2, 25000
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
			checkRows(t, sys, nil)
			rows := make([]any, len(sys.Cores))
			for c := range rows {
				rows[c] = sys.Clusters[0].Row(c)
			}
			if err := sys.RunTo(early); err != nil {
				t.Fatal(err)
			}
			snap := sys.Checkpoint()
			if n := rowStates(reflect.ValueOf(snap).Elem()); n != len(sys.Cores) {
				t.Fatalf("the snapshot holds %d rows for %d cores", n, len(sys.Cores))
			}
			if err := sys.RunTo(later); err != nil {
				t.Fatal(err)
			}
			if kind == arch.Occamy && sys.Cplx.Migrations() == 0 {
				t.Fatalf("no migration by cycle %d", later)
			}
			checkRows(t, sys, rows)
			if err := sys.RestoreCheckpoint(snap); err != nil {
				t.Fatal(err)
			}
			checkRows(t, sys, rows)
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
