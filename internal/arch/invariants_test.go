package arch

import (
	"testing"

	"occamy/internal/workload"
)

// tblChecker asserts the resource-table invariants every cycle: lane
// conservation (sum of configured lengths plus <AL> equals the ExeBU count)
// and bounds on every register.
type tblChecker struct {
	sys    *System
	t      *testing.T
	failed bool
}

func (c *tblChecker) Name() string { return "invariant-checker" }

func (c *tblChecker) Tick(cycle uint64) {
	if c.failed {
		return
	}
	tbl := c.sys.Clusters[0].Tbl()
	sum := 0
	for core := 0; core < tbl.Cores(); core++ {
		vl := tbl.VL(core)
		if vl < 0 || vl > tbl.Total() {
			c.t.Errorf("cycle %d: core %d VL %d out of range", cycle, core, vl)
			c.failed = true
		}
		dec := tbl.Decision(core)
		if dec < 0 || dec > tbl.Total() {
			c.t.Errorf("cycle %d: core %d decision %d out of range", cycle, core, dec)
			c.failed = true
		}
		sum += vl
	}
	if al := tbl.AL(); sum+al != tbl.Total() || al < 0 {
		c.t.Errorf("cycle %d: lane conservation violated: sum(VL)=%d AL=%d total=%d",
			cycle, sum, al, tbl.Total())
		c.failed = true
	}
	// The published plan must itself be feasible.
	decSum := 0
	for core := 0; core < tbl.Cores(); core++ {
		decSum += tbl.Decision(core)
	}
	if decSum > tbl.Total() {
		c.t.Errorf("cycle %d: infeasible plan: sum(decisions)=%d > %d", cycle, decSum, tbl.Total())
		c.failed = true
	}
}

// TestLaneConservationInvariant runs the motivating pair under Occamy with a
// per-cycle invariant checker registered alongside the hardware.
func TestLaneConservationInvariant(t *testing.T) {
	r := workload.NewRegistry()
	sched := workload.MotivatingPair(r).Scaled(0.25)
	sys, err := Build(Occamy, sched, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine.Register(&tblChecker{sys: sys, t: t})
	if _, err := sys.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestLaneConservationUnderChurn repeats the check under heavy phase churn
// and four cores.
func TestLaneConservationUnderChurn(t *testing.T) {
	r := workload.NewRegistry()
	group := workload.FourCoreGroups(r)[1].Scaled(0.1)
	sys, err := Build(Occamy, group, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine.Register(&tblChecker{sys: sys, t: t})
	if _, err := sys.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestUtilizationNeverExceedsOne guards the busy-lane accounting on all four
// architectures.
func TestUtilizationNeverExceedsOne(t *testing.T) {
	r := workload.NewRegistry()
	sched := workload.CaseStudyPair(r, 1).Scaled(0.2)
	for _, kind := range Kinds {
		sys, err := Build(kind, sched, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Utilization < 0 || res.Utilization > 1 {
			t.Errorf("%s: utilization %v out of [0,1]", kind, res.Utilization)
		}
		for c := range sys.Cores {
			for _, v := range sys.Clusters[0].BusyTimeline(c).Points() {
				if v < 0 || v > 32 {
					t.Fatalf("%s core %d: busy lanes %v out of [0,32]", kind, c, v)
				}
			}
		}
	}
}

// TestMakespanOrderingHolds pins the paper's headline ordering on the
// motivating pair: Occamy completes the compute workload fastest; every
// sharing architecture beats or matches Private.
func TestMakespanOrderingHolds(t *testing.T) {
	r := workload.NewRegistry()
	sched := workload.MotivatingPair(r).Scaled(0.5)
	times := map[Kind]uint64{}
	for _, kind := range Kinds {
		sys, err := Build(kind, sched, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(200_000_000)
		if err != nil {
			t.Fatal(err)
		}
		times[kind] = res.Cores[1].Cycles
	}
	if !(times[Occamy] < times[Private]) {
		t.Errorf("Occamy WL#1 (%d) must beat Private (%d)", times[Occamy], times[Private])
	}
	if !(times[VLS] < times[Private]) {
		t.Errorf("VLS WL#1 (%d) must beat Private (%d)", times[VLS], times[Private])
	}
	if !(times[Occamy] <= times[VLS]) {
		t.Errorf("Occamy WL#1 (%d) must match or beat VLS (%d)", times[Occamy], times[VLS])
	}
}
