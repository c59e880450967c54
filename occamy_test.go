package occamy

import (
	"math"
	"testing"
)

// quickCfg shrinks trip counts so the public-API tests stay fast.
func quickCfg(a Arch) Config {
	cfg := DefaultConfig(a)
	cfg.Scale = 0.25
	return cfg
}

func TestWorkloadCatalog(t *testing.T) {
	if got := len(Workloads()); got != 34 {
		t.Fatalf("workloads = %d, want 34", got)
	}
	if got := len(Figure10Pairs()); got != 25 {
		t.Fatalf("pairs = %d, want 25", got)
	}
	if got := len(FourCoreGroups()); got != 4 {
		t.Fatalf("groups = %d, want 4", got)
	}
	issue, mem := KernelOI("rho_eos2")
	if !(issue < mem) {
		t.Fatalf("rho_eos2 OI = (%v, %v), want issue < mem", issue, mem)
	}
}

func TestRunAllArchitectures(t *testing.T) {
	sched := MotivatingPair()
	var reports []*Report
	for _, a := range Architectures() {
		rep, err := Run(quickCfg(a), sched)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if rep.Cycles == 0 || len(rep.Cores) != 2 {
			t.Fatalf("%s: degenerate report %+v", a, rep)
		}
		if rep.Summary() == "" {
			t.Fatalf("%s: empty summary", a)
		}
		reports = append(reports, rep)
	}
	// The headline claim at a glance: Occamy's Core1 beats Private's.
	if reports[3].Cores[1].Cycles >= reports[0].Cores[1].Cycles {
		t.Fatalf("Occamy core1 (%d) must beat Private (%d)",
			reports[3].Cores[1].Cycles, reports[0].Cores[1].Cycles)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	sched := PairByName("spec/WL20", "spec/WL17")
	cfg := quickCfg(Elastic)
	a, err := Run(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Utilization != b.Utilization {
		t.Fatalf("two identical runs differ: %d/%f vs %d/%f",
			a.Cycles, a.Utilization, b.Cycles, b.Utilization)
	}
	for c := range a.Cores {
		if a.Cores[c].Cycles != b.Cores[c].Cycles {
			t.Fatalf("core %d cycles differ", c)
		}
	}
}

func TestSeedChangesDataNotShape(t *testing.T) {
	sched := PairByName("cv/WL6", "cv/WL1")
	cfg := quickCfg(Elastic)
	cfg.Seed = 1
	a, err := Run(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Run(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	// Timing is data-independent in this design (no data-dependent
	// branches in kernels), so cycles must match even across seeds.
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles depend on data: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestElasticReconfiguresAndOthersDoNot(t *testing.T) {
	sched := MotivatingPair()
	rep, err := Run(quickCfg(Elastic), sched)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repartitions == 0 || rep.Reconfigures == 0 {
		t.Fatalf("elastic run must repartition (%d) and reconfigure (%d)",
			rep.Repartitions, rep.Reconfigures)
	}
	repP, err := Run(quickCfg(Private), sched)
	if err != nil {
		t.Fatal(err)
	}
	if repP.Reconfigures != 0 {
		t.Fatal("Private must never reconfigure")
	}
}

// elasticLaneRun runs the motivating pair on the elastic architecture, the
// run whose lane log the two tests below check.
func elasticLaneRun(t *testing.T) *Report {
	t.Helper()
	cfg := quickCfg(Elastic)
	cfg.Seed = 7
	rep, err := Run(cfg, MotivatingPair())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReportLaneEventsShape pins Report.LaneEvents on the motivating pair: an
// elastic run logs a non-empty lane log with in-range reconfigurations and
// one decision per core on every event, next to a busy-lane series per core.
func TestReportLaneEventsShape(t *testing.T) {
	rep := elasticLaneRun(t)
	if rep.Arch != Elastic || len(rep.Cores) != 2 {
		t.Fatalf("report for %s with %d cores, want %s with 2", rep.Arch, len(rep.Cores), Elastic)
	}
	if len(rep.LaneEvents) == 0 {
		t.Fatal("elastic run must log lane events")
	}
	reconfigs := 0
	for _, e := range rep.LaneEvents {
		if len(e.Decisions) != len(rep.Cores) {
			t.Fatalf("event %+v carries %d decisions, want one per core", e, len(e.Decisions))
		}
		if e.Kind == "reconfigure" {
			reconfigs++
			if e.VL < 0 || e.VL > 8 {
				t.Fatalf("event VL %d out of range", e.VL)
			}
		}
	}
	if reconfigs == 0 {
		t.Fatal("no reconfigure events")
	}
	if len(rep.LaneTimelines) != 2 || len(rep.LaneTimelines[1]) == 0 {
		t.Fatal("busy-lane series empty")
	}
}

// TestReportLaneEventsCycleOrdered pins that Report.LaneEvents is logged in
// cycle order.
func TestReportLaneEventsCycleOrdered(t *testing.T) {
	rep := elasticLaneRun(t)
	for i := 1; i < len(rep.LaneEvents); i++ {
		if rep.LaneEvents[i].Cycle < rep.LaneEvents[i-1].Cycle {
			t.Fatalf("event %d at cycle %d precedes its predecessor's %d",
				i, rep.LaneEvents[i].Cycle, rep.LaneEvents[i-1].Cycle)
		}
	}
}

func TestStaticSpatialReportsPartition(t *testing.T) {
	rep, err := Run(quickCfg(StaticSpatial), MotivatingPair())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StaticVLs) != 2 {
		t.Fatalf("VLS must report its partition, got %v", rep.StaticVLs)
	}
	sum := rep.StaticVLs[0] + rep.StaticVLs[1]
	if sum != 8 {
		t.Fatalf("partition %v must use all 8 granules", rep.StaticVLs)
	}
}

func TestFunctionalVerificationAcrossArchitectures(t *testing.T) {
	// All four architectures must produce identical (within reduction
	// reassociation) results for reduction-heavy workloads.
	sched := PairByName("cv/WL7", "cv/WL3") // normL1+normL2 reductions
	for _, a := range Architectures() {
		cfg := quickCfg(a)
		cfg.Verify = true // Run fails on any divergence
		if _, err := Run(cfg, sched); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
}

func TestRooflineAPI(t *testing.T) {
	// Table 5 anchor values through the public API.
	if got := Roofline(3, 1.0/6.0, 0.25); math.Abs(got-16) > 0.2 {
		t.Fatalf("Roofline(12 lanes) = %v, want 16", got)
	}
	if got := Roofline(1, 1.0/6.0, 0.25); math.Abs(got-16.0/3) > 0.2 {
		t.Fatalf("Roofline(4 lanes) = %v, want 5.3", got)
	}
}

func TestLanePlanAPI(t *testing.T) {
	plan := LanePlan([][2]float64{{0.09, 0.09}, {1, 1}}, 8)
	if plan[0] != 2 || plan[1] != 6 {
		t.Fatalf("plan = %v, want [2 6]", plan)
	}
	// Inactive core.
	plan = LanePlan([][2]float64{{0, 0}, {1, 1}}, 8)
	if plan[0] != 0 || plan[1] != 8 {
		t.Fatalf("plan = %v, want [0 8]", plan)
	}
}

func TestFourCoreSchedule(t *testing.T) {
	g := FourCoreGroups()[1] // WL21+20+17+17
	cfg := quickCfg(Elastic)
	rep, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cores) != 4 {
		t.Fatalf("cores = %d, want 4", len(rep.Cores))
	}
}

func TestTimelinesPopulated(t *testing.T) {
	rep, err := Run(quickCfg(Elastic), MotivatingPair())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.LaneTimelines) != 2 || len(rep.LaneTimelines[1]) == 0 {
		t.Fatal("lane timelines missing")
	}
	if s := rep.AsciiTimeline(1, 32); len(s) == 0 {
		t.Fatal("ascii timeline empty")
	}
}

func TestScheduleAccessors(t *testing.T) {
	s := PairByName("spec/WL8", "spec/WL17")
	if s.Cores() != 2 {
		t.Fatal("cores")
	}
	names := s.WorkloadNames()
	if names[0] != "spec/WL8" || names[1] != "spec/WL17" {
		t.Fatalf("names = %v", names)
	}
	if s.Name() == "" {
		t.Fatal("name empty")
	}
}

func TestAssemblyAPI(t *testing.T) {
	// A two-core hand-written program pair: core 0 publishes a memory OI
	// and copies; core 1 waits for lanes and scales a vector.
	const prog0 = `
		MOVI X1, #1048592
		MSR <OI>, X1
		MOVI X2, #1
	s:	MSR <VL>, X2
		MRS X3, <status>
		B.NEI X3, #1, s
		MOVI X8, #4096
		MOVI X9, #8192
		VLD1W Z1, [X8, XZR]
		VFADD Z2, Z1, Z1
		VST1W Z2, [X9, XZR]
		MSR <OI>, #0
	r:	MSR <VL>, #0
		MRS X3, <status>
		B.NEI X3, #1, r
		HALT
	`
	const prog1 = `
		MOVI X2, #2
	s:	MSR <VL>, X2
		MRS X3, <status>
		B.NEI X3, #1, s
		MOVI X8, #16384
		VDUPI Z1, #3
		VST1W Z1, [X8, XZR]
	r:	MSR <VL>, #0
		MRS X3, <status>
		B.NEI X3, #1, r
		HALT
	`
	asm, err := NewAssembly(prog0, prog1)
	if err != nil {
		t.Fatal(err)
	}
	asm.WriteF32(4096, 2.5)
	cycles, err := asm.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("no cycles")
	}
	if got := asm.ReadF32(8192); got != 5 {
		t.Fatalf("core0 result = %v, want 5", got)
	}
	if got := asm.ReadF32(16384 + 4*7); got != 3 {
		t.Fatalf("core1 lane 7 = %v, want 3", got)
	}
	if len(asm.LaneEvents()) == 0 {
		t.Fatal("no lane events recorded")
	}
}

func TestRunOversubscribedAPI(t *testing.T) {
	rep, err := RunOversubscribed(2, 2000, 1,
		WorkloadByName("spec/WL16"),
		WorkloadByName("spec/WL13"),
		WorkloadByName("cv/WL1"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles == 0 || len(rep.Tasks) != 3 {
		t.Fatalf("report %+v", rep)
	}
}

func TestWorkloadJSONAPI(t *testing.T) {
	src := []byte(`{"name":"api","phases":[{"kernel":"k","elems":300,
	  "loads":[{"stream":0}],
	  "statements":[{"out":1,"expr":"mul(s0, c3)"}]}]}`)
	ref, err := WorkloadFromJSON(src)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Name() != "api" {
		t.Fatal("name lost")
	}
	out, err := WorkloadToJSON(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WorkloadFromJSON(out); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	cfg := quickCfg(Elastic)
	rep, err := Run(cfg, NewSchedule("api+peer", ref, WorkloadByName("spec/WL16")))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

// TestMachineConfigAPI verifies the public machine-tuning hook: overriding
// Table 4 parameters through Config.Machine must change timing while keeping
// every result verified.
func TestMachineConfigAPI(t *testing.T) {
	sched := PairByName("spec/WL20", "spec/WL17")
	base, err := Run(quickCfg(Elastic), sched)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(Elastic)
	cfg.Verify = true
	cfg.Machine = &MachineTuning{DRAMLatencyCycles: 300, DRAMBytesPerCycle: 8, PhysRegs: 120}
	slow, err := Run(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Cycles <= base.Cycles {
		t.Fatalf("hobbled machine was not slower: %d vs %d", slow.Cycles, base.Cycles)
	}
}
