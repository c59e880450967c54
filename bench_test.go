package occamy

// The benchmarks in this file regenerate every table and figure of the
// paper's evaluation (§7); each prints the same rows/series the paper
// reports via testing.B metrics and -v logs. Run the full set with
//
//	go test -bench=. -benchmem
//
// and see cmd/occamy-bench for the formatted report (EXPERIMENTS.md records
// the paper-vs-measured comparison).

import (
	"fmt"
	"testing"

	"occamy/internal/arch"
	"occamy/internal/area"
	"occamy/internal/coproc"
	"occamy/internal/experiments"
	"occamy/internal/isa"
	"occamy/internal/lanemgr"
	"occamy/internal/roofline"
	"occamy/internal/traffic"
	"occamy/internal/workload"
)

// benchCfg keeps bench iterations affordable while preserving shape; the
// committed EXPERIMENTS.md numbers come from full-scale occamy-bench runs.
func benchCfg() experiments.Config {
	c := experiments.Default()
	c.Scale = 0.25
	return c
}

// BenchmarkFigure2_MotivatingExample regenerates the §2 example: the four
// architectures on WL#0 (memory, two phases) + WL#1 (compute).
func BenchmarkFigure2_MotivatingExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchCfg().Figure2()
		if err != nil {
			b.Fatal(err)
		}
		base := f.Results[arch.Private]
		occ := f.Results[arch.Occamy]
		b.ReportMetric(float64(base.Cores[1].Cycles)/float64(occ.Cores[1].Cycles), "occamy-WL1-speedup")
		b.ReportMetric(100*occ.Utilization, "occamy-util-%")
	}
}

// BenchmarkFigure10_Speedups regenerates the 25-pair speedup sweep.
func BenchmarkFigure10_Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := benchCfg().Sweep(false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sw.GeomeanSpeedup(arch.FTS, 1), "FTS-c1-GM-x")
		b.ReportMetric(sw.GeomeanSpeedup(arch.VLS, 1), "VLS-c1-GM-x")
		b.ReportMetric(sw.GeomeanSpeedup(arch.Occamy, 1), "Occamy-c1-GM-x")
		b.ReportMetric(sw.GeomeanSpeedup(arch.Occamy, 0), "Occamy-c0-GM-x")
		if b.N == 1 {
			b.Log("\n" + experiments.RenderFigure10(sw))
		}
	}
}

// BenchmarkFigure11_SIMDUtilization regenerates the utilization sweep.
func BenchmarkFigure11_SIMDUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := benchCfg().Sweep(false)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range arch.Kinds {
			b.ReportMetric(100*sw.GeomeanUtilization(k), k.String()+"-util-%")
		}
	}
}

// BenchmarkFigure12_AreaBreakdown regenerates the area model (analytical;
// the "workload" is the model evaluation itself).
func BenchmarkFigure12_AreaBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := area.Figure12()
		b.ReportMetric(f[arch.Private], "private-mm2")
		b.ReportMetric(f[arch.Occamy], "occamy-mm2")
	}
}

// BenchmarkFigure13_RenameStalls regenerates the register-stall study.
func BenchmarkFigure13_RenameStalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := benchCfg().Sweep(false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*sw.GeomeanRenameStalls(arch.FTS), "FTS-stall-%")
		b.ReportMetric(100*sw.GeomeanRenameStalls(arch.Private), "Private-stall-%")
	}
}

// BenchmarkFigure14_CaseStudy regenerates the WL20+WL17 case study.
func BenchmarkFigure14_CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchCfg().Figure14()
		if err != nil {
			b.Fatal(err)
		}
		// The knee: WL17 keeps scaling at 28 lanes, the memory phases
		// flatten (normalized time at 28 vs 16 lanes).
		wl17 := f.NormalizedTimes["WL17(wsm52)"]
		p1 := f.NormalizedTimes["WL20.p1(sff2)"]
		b.ReportMetric(p1[3]/p1[6], "WL20p1-flatness")
		b.ReportMetric(wl17[3]/wl17[6], "WL17-scaling")
		if b.N == 1 {
			b.Log("\n" + f.Render())
		}
	}
}

// BenchmarkTable5_AttainablePerformance regenerates the roofline table.
func BenchmarkTable5_AttainablePerformance(b *testing.B) {
	m := roofline.Default()
	oi := isa.OIPair{Issue: 1.0 / 6.0, Mem: 0.25}
	for i := 0; i < b.N; i++ {
		for g := 1; g <= 8; g++ {
			_ = m.Attainable(g, oi)
		}
	}
	b.ReportMetric(m.Attainable(1, oi), "AP-4lanes-GFLOPs")
	b.ReportMetric(m.Attainable(3, oi), "AP-12lanes-GFLOPs")
}

// BenchmarkFigure15_Overhead regenerates the elastic-sharing overhead sweep.
func BenchmarkFigure15_Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := benchCfg().Sweep(false)
		if err != nil {
			b.Fatal(err)
		}
		m, g := sw.MeanOverhead()
		b.ReportMetric(100*m, "monitor-%")
		b.ReportMetric(100*g, "reconfig-%")
	}
}

// BenchmarkFigure16_FourCoreScalability regenerates the §7.6 study.
func BenchmarkFigure16_FourCoreScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchCfg().Figure16()
		if err != nil {
			b.Fatal(err)
		}
		// Occamy's compute-core win on the second group (two pairs).
		b.ReportMetric(f.Speedup("4c:WL21+20+17+17", arch.Occamy, 2), "occamy-c2-x")
		b.ReportMetric(f.Speedup("4c:WL21+20+17+17", arch.Occamy, 3), "occamy-c3-x")
		if b.N == 1 {
			b.Log("\n" + f.Render())
		}
	}
}

// BenchmarkAblation_MonitorPeriod measures the Fig. 9 monitor polling knob.
func BenchmarkAblation_MonitorPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchCfg().AblationMonitorPeriod([]int{1, 4, 16, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_IssueCeiling measures lane plans with/without Eq. 2.
func BenchmarkAblation_IssueCeiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationIssueCeiling()
	}
}

// BenchmarkDSE_MachineSweeps regenerates the design-space exploration
// tables: DRAM bandwidth, vector-cache capacity and FP pipeline depth swept
// around the Table 4 point on the motivating pair (see EXPERIMENTS.md
// "Extensions").
func BenchmarkDSE_MachineSweeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchCfg().DSEDefaults(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLanePartitioner measures the §5.2 greedy planner itself (the
// hardware does this at every phase-changing point, so it must be cheap).
func BenchmarkLanePartitioner(b *testing.B) {
	m := roofline.Default()
	ois := []isa.OIPair{{Issue: 0.09, Mem: 0.12}, {Issue: 1, Mem: 1}, {Issue: 0.25, Mem: 0.25}, {Issue: 0.5, Mem: 0.6}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lanemgr.Plan(m, ois, 16)
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles/s) on
// the motivating pair under Occamy.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := DefaultConfig(Elastic)
	cfg.Scale = 0.25
	cfg.Verify = false
	var cycles uint64
	for i := 0; i < b.N; i++ {
		rep, err := Run(cfg, MotivatingPair())
		if err != nil {
			b.Fatal(err)
		}
		cycles += rep.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkEngineSkipAhead compares the legacy every-cycle tick loop against
// the hybrid skip-ahead engine. Both modes produce bit-identical results
// (see internal/arch TestEngineSkipAheadBitIdentical); only wall time
// differs. Three scenarios bracket the engine's payoff:
//
//   - Pair: the full motivating pair (WL20+WL21 co-run) on the Table 4
//     machine. Co-runs keep at least one core live most cycles, so this is
//     the engine's worst case — skip-ahead must at least not lose.
//
//   - MemPhase: the motivating pair's memory-bound phase in isolation
//     (solo WL20, the Figure 2 workload whose LHQ-limited DRAM streaming
//     motivates the ISSUE). Quiescent stall windows appear whenever the
//     load queue drains against DRAM.
//
//   - MemPhaseSlowDRAM: the same phase on a latency-dominated memory
//     system (600-cycle DRAM, 2 B/cycle — a far-memory/CXL-class DSE
//     point). Stall windows stretch to hundreds of cycles and skip-ahead
//     elides almost all of them; this is where the ≥2x win lives.
//
//     go test -bench=EngineSkipAhead -count=5
func BenchmarkEngineSkipAhead(b *testing.B) {
	run := func(b *testing.B, legacy bool, sched Schedule, m *MachineTuning) {
		cfg := DefaultConfig(Elastic)
		cfg.Scale = 0.25
		cfg.Verify = false
		cfg.LegacyTick = legacy
		cfg.Machine = m
		var cycles uint64
		for i := 0; i < b.N; i++ {
			rep, err := Run(cfg, sched)
			if err != nil {
				b.Fatal(err)
			}
			cycles += rep.Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
	}
	memPhase := NewSchedule("solo:WL20", WorkloadByName("spec/WL20"))
	slowDRAM := &MachineTuning{DRAMLatencyCycles: 600, DRAMBytesPerCycle: 2}
	b.Run("Pair/Legacy", func(b *testing.B) { run(b, true, MotivatingPair(), nil) })
	b.Run("Pair/Skip", func(b *testing.B) { run(b, false, MotivatingPair(), nil) })
	b.Run("MemPhase/Legacy", func(b *testing.B) { run(b, true, memPhase, nil) })
	b.Run("MemPhase/Skip", func(b *testing.B) { run(b, false, memPhase, nil) })
	b.Run("MemPhaseSlowDRAM/Legacy", func(b *testing.B) { run(b, true, memPhase, slowDRAM) })
	b.Run("MemPhaseSlowDRAM/Skip", func(b *testing.B) { run(b, false, memPhase, slowDRAM) })
}

// BenchmarkSteadyStateTick measures the warm per-cycle cost of each
// architecture — ns/op IS ns per simulated cycle — and, with -benchmem, the
// hot path's allocation contract (must be 0 allocs/op; internal/arch
// TestSteadyStateZeroAlloc enforces the same bound exactly).
//
// The system is built and warmed once, outside the timer, with skip-ahead
// off so every iteration is a real tick. A checkpoint taken at the warm
// point recycles the system whenever the workload nears completion, so b.N
// can exceed the workload length without measuring post-completion idle
// cycles. The recycle restore runs outside the timer (StopTimer/StartTimer):
// it is harness housekeeping, not steady-state work, and since the restore
// path gained snapshot-integrity verification (a full digest walk per
// restore) leaving it timed would smear an amortized verify into the
// per-cycle numbers this gate exists to pin down.
//
// CI gates on this benchmark: cmd/occamy-benchgate compares ns/op against
// the committed BENCH_PR14.json baseline (±10%) and fails on any nonzero
// allocs/op. Refresh the baseline (every gated benchmark) with:
//
//	{ go test -run xxx -bench 'SteadyStateTick|IssueScan' -benchmem -count 3 . ./internal/coproc ;
//	  go test -run xxx -bench SweepWallClock -benchtime 1x -count 3 . ; } |
//	    go run ./cmd/occamy-benchgate -baseline BENCH_PR14.json -update
func BenchmarkSteadyStateTick(b *testing.B) {
	group := steadyGroup()
	const warm, recycle = 2001, 20_000
	for _, kind := range arch.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			sys, err := arch.Build(kind, group, arch.Options{Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			sys.Engine.SetSkipAhead(false)
			if err := sys.RunTo(warm); err != nil {
				b.Fatal(err)
			}
			snap := sys.Checkpoint()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sys.Engine.Cycle() >= recycle {
					b.StopTimer()
					if err := sys.RestoreCheckpoint(snap); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				sys.Engine.Step()
			}
		})
	}
}

// steadyGroup is the 2-core co-run the steady-state tick benchmarks measure:
// a long dense dot-product stream against a triad, long enough that a warm
// checkpoint can be recycled for tens of thousands of real ticks.
func steadyGroup() workload.CoSchedule {
	reg := workload.NewRegistry()
	dot := *reg.Kernel("dotProd")
	dot.Elems, dot.Repeats = 2000, 30
	tri := *reg.Kernel("wsm51")
	tri.Elems, tri.Repeats = 512, 30
	return workload.CoSchedule{Name: "steady", W: []*workload.Workload{
		{Name: "steady.dot", Phases: []*workload.Kernel{&dot}},
		{Name: "steady.tri", Phases: []*workload.Kernel{&tri}},
	}}
}

// BenchmarkSweepWallClock measures whole-sweep wall clock on one worker
// (Parallel = 1): the degradation study and a small hierarchical
// scalability slice. These gate end-to-end sweep throughput — construction,
// checkpoint forking and verification included — so cmd/occamy-benchgate
// compares them against the baseline with a wider tolerance than the
// per-tick gates (-sweep / -sweeptolerance) and exempts them from the
// zero-allocation contract.
func BenchmarkSweepWallClock(b *testing.B) {
	cfg := experiments.Quick()
	cfg.Parallel = 1
	b.Run("Degradation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfg.Degradation(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Scale", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfg.Scalability([]int{4, 8}, []int{1, 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSteadyStateTickTopo64 is the clustered counterpart: the headline
// 64-core machine over 4 co-processor clusters behind the routed fabric
// (hop latency 2, 8 transmits/cluster/cycle). ns/op is ns per simulated
// cycle of the whole 64-core machine; allocs/op must stay 0 — the same
// contract internal/arch TestSteadyStateZeroAllocTopo64 enforces exactly.
// The name shares the SteadyStateTick prefix so the CI benchmark gate
// (-bench SteadyStateTick) covers both machines.
func BenchmarkSteadyStateTickTopo64(b *testing.B) {
	reg := workload.NewRegistry()
	names := []string{"dotProd", "wsm51", "rho_eos1", "rgb2hsv"}
	group := workload.CoSchedule{Name: "steady64"}
	for c := 0; c < 64; c++ {
		k := *reg.Kernel(names[c%len(names)])
		k.Elems, k.Repeats = 512+64*(c%4), 20
		group.W = append(group.W, &workload.Workload{
			Name: fmt.Sprintf("steady64.c%d", c), Phases: []*workload.Kernel{&k},
		})
	}
	const warm, recycle = 2001, 20_000
	for _, kind := range arch.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			sys, err := arch.Build(kind, group, arch.Options{
				Seed:     5,
				Topology: &coproc.Topology{Clusters: 4, HopLatency: 2, HopBandwidth: 8},
			})
			if err != nil {
				b.Fatal(err)
			}
			sys.Engine.SetSkipAhead(false)
			if err := sys.RunTo(warm); err != nil {
				b.Fatal(err)
			}
			snap := sys.Checkpoint()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sys.Engine.Cycle() >= recycle {
					b.StopTimer()
					if err := sys.RestoreCheckpoint(snap); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				sys.Engine.Step()
			}
		})
	}
}

// BenchmarkSteadyStateTickTraffic measures the warm per-cycle cost with the
// open-loop traffic layer active: Poisson arrivals, tenant churn and the
// preemptive osched scheduler all ticking alongside the cores. ns/op is ns
// per simulated cycle of the loaded machine; allocs/op must stay 0 — the
// arrival engine's rings, task contexts and vector save buffers are all
// preallocated (internal/traffic TestSteadyStateZeroAllocTraffic enforces
// the same bound exactly, per architecture). The name shares the
// SteadyStateTick prefix so the CI benchmark gate (-bench SteadyStateTick)
// covers the traffic path too.
func BenchmarkSteadyStateTickTraffic(b *testing.B) {
	spec, err := traffic.ParseSpec(
		"poisson:load=16,tenants=3,cores=2,horizon=6000,slice=300,elems=128,repeats=1,churn=500:700,maxtasks=4096")
	if err != nil {
		b.Fatal(err)
	}
	const warm, recycle = 2001, 5_000
	for _, kind := range arch.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			sc, err := traffic.Build(kind, spec, arch.Options{Seed: 19})
			if err != nil {
				b.Fatal(err)
			}
			sc.Sys.Engine.SetSkipAhead(false)
			if _, err := sc.Sys.Engine.RunUntil(func() bool { return sc.Sys.Engine.Cycle() >= warm }, 1_000_000); err != nil {
				b.Fatal(err)
			}
			snap := sc.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sc.Sys.Engine.Cycle() >= recycle {
					b.StopTimer()
					if err := sc.RestoreSnapshot(snap); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				sc.Sys.Engine.Step()
			}
		})
	}
}

// BenchmarkObsOverhead guards the observability layer's cost contract: with
// profiling off, the probes must stay nil (no per-cycle work beyond a nil
// check), so Off should run within a few percent of the pre-observability
// simulator; On pays for full cycle attribution. Compare the two:
//
//	go test -bench=ObsOverhead -count=5
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, profile bool) {
		cfg := DefaultConfig(Elastic)
		cfg.Scale = 0.25
		cfg.Verify = false
		cfg.Profile = profile
		var cycles uint64
		for i := 0; i < b.N; i++ {
			rep, err := Run(cfg, MotivatingPair())
			if err != nil {
				b.Fatal(err)
			}
			cycles += rep.Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
	}
	b.Run("Off", func(b *testing.B) { run(b, false) })
	b.Run("On", func(b *testing.B) { run(b, true) })
}
