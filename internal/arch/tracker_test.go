package arch

import (
	"testing"

	"occamy/internal/workload"
)

// trackerGroup is a <compute, compute> pair (the first phases of WL9 and
// WL13, the §7.4 case-study pair) with each loop repeated long enough that
// cycle 50k sits inside the phase on every architecture.
func trackerGroup() workload.CoSchedule {
	r := workload.NewRegistry()
	var ws []*workload.Workload
	for _, name := range []string{"spec/WL9", "spec/WL13"} {
		k := *r.Workload(name).Phases[0]
		k.Repeats = 1000
		ws = append(ws, &workload.Workload{Name: name, Phases: []*workload.Kernel{&k}})
	}
	return workload.CoSchedule{Name: "tracker", W: ws}
}

// TestTrackerBoundDeepInPhase runs a compute-intensive pair for 50k cycles on
// the per-cycle path, far past the window TestSteadyStateZeroAlloc measures,
// on all four architectures. At every cycle each co-processor hold tracker
// must stay within what a core can have in flight (window + LHQ + STQ
// entries), and an 80-tick window at the end must allocate nothing. A
// tracker that only drains in Count grows for as long as the pool stays
// non-empty, and its doubling reallocations land in ever later windows.
func TestTrackerBoundDeepInPhase(t *testing.T) {
	const deep = 50_000
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := Build(kind, trackerGroup(), Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			sys.Engine.SetSkipAhead(false)
			for sys.Engine.Cycle() < deep {
				sys.Engine.Step()
				if err := sys.Clusters[0].CheckTrackerBound(); err != nil {
					t.Fatalf("cycle %d: %v", sys.Engine.Cycle(), err)
				}
			}
			if avg := testing.AllocsPerRun(10, func() {
				for i := 0; i < 80; i++ {
					sys.Engine.Step()
				}
			}); avg != 0 {
				t.Errorf("%s: tick at cycle %d allocates %.2f objects per 80-cycle window, want 0", kind, deep, avg)
			}
			if sys.Done() {
				t.Fatalf("the pair finished before cycle %d", sys.Engine.Cycle())
			}
		})
	}
}
