package cpu

import (
	"fmt"
	"testing"

	"occamy/internal/coproc"
	"occamy/internal/isa"
	"occamy/internal/mem"
	"occamy/internal/roofline"
	"occamy/internal/sim"
)

// rig wires a single scalar core to a co-processor and memory.
type rig struct {
	core  *Core
	cp    *coproc.Coproc
	data  *mem.Memory
	eng   *sim.Engine
	stats *sim.Stats
}

func newRig(t *testing.T, prog *isa.Program) *rig {
	t.Helper()
	eng := sim.NewEngine()
	stats := eng.Stats()
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig(1), stats)
	ccfg := coproc.DefaultConfig(1)
	ccfg.ExeBUs = 8
	cp := coproc.New(ccfg, h.VecCache, h.Mem, roofline.Default(), stats)
	core := New(0, DefaultConfig(), prog, cp, h.L1D[0], h.Mem, stats)
	cp.SetResponder(core.HandleResult)
	eng.Register(core)
	eng.Register(cp)
	return &rig{core: core, cp: cp, data: h.Mem, eng: eng, stats: stats}
}

func (r *rig) run(t *testing.T, maxCycles uint64) {
	t.Helper()
	done := func() bool { return r.core.Halted() && r.cp.Quiescent(0, r.eng.Cycle()) }
	if _, err := r.eng.RunUntil(done, maxCycles); err != nil {
		t.Fatalf("run: %v (pc=%d)", err, r.core.PC())
	}
}

func asm(t *testing.T, build func(b *isa.Builder)) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("test")
	build(b)
	b.Emit(isa.Inst{Op: isa.OpHalt})
	p, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScalarALULoop(t *testing.T) {
	// Sum 1..10 into X1.
	p := asm(t, func(b *isa.Builder) {
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 0, Imm: 0})  // i
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 1, Imm: 0})  // sum
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 2, Imm: 10}) // limit
		b.Label("loop")
		b.Emit(isa.Inst{Op: isa.OpAddI, Dst: 0, Src1: 0, Imm: 1})
		b.Emit(isa.Inst{Op: isa.OpAdd, Dst: 1, Src1: 1, Src2: 0})
		b.Branch(isa.Inst{Op: isa.OpBLT, Src1: 0, Src2: 2}, "loop")
	})
	r := newRig(t, p)
	r.run(t, 10000)
	if got := r.core.X(1); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestScalarArithAndXZR(t *testing.T) {
	p := asm(t, func(b *isa.Builder) {
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 1, Imm: 6})
		b.Emit(isa.Inst{Op: isa.OpMulI, Dst: 2, Src1: 1, Imm: 7})
		b.Emit(isa.Inst{Op: isa.OpSubI, Dst: 3, Src1: 2, Imm: 2})
		b.Emit(isa.Inst{Op: isa.OpSub, Dst: 4, Src1: 3, Src2: 1})
		b.Emit(isa.Inst{Op: isa.OpAdd, Dst: 5, Src1: isa.XZR, Src2: 1})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: isa.XZR, Imm: 99}) // discarded
		b.Emit(isa.Inst{Op: isa.OpMov, Dst: 6, Src1: isa.XZR})
	})
	r := newRig(t, p)
	r.run(t, 1000)
	if r.core.X(2) != 42 || r.core.X(3) != 40 || r.core.X(4) != 34 {
		t.Fatalf("arith: X2=%d X3=%d X4=%d", r.core.X(2), r.core.X(3), r.core.X(4))
	}
	if r.core.X(5) != 6 || r.core.X(6) != 0 {
		t.Fatalf("XZR semantics: X5=%d X6=%d", r.core.X(5), r.core.X(6))
	}
}

func TestBranchVariants(t *testing.T) {
	p := asm(t, func(b *isa.Builder) {
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 1, Imm: 5})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 2, Imm: 5})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 10, Imm: 0})
		b.Branch(isa.Inst{Op: isa.OpBEQ, Src1: 1, Src2: 2}, "eq")
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 10, Imm: 111}) // must be skipped
		b.Label("eq")
		b.Branch(isa.Inst{Op: isa.OpBNE, Src1: 1, Src2: 2}, "bad")
		b.Branch(isa.Inst{Op: isa.OpBGE, Src1: 1, Src2: 2}, "ge")
		b.Label("bad")
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 10, Imm: 222})
		b.Label("ge")
		b.Branch(isa.Inst{Op: isa.OpBEQI, Src1: 1, Imm: 5}, "eqi")
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 10, Imm: 333})
		b.Label("eqi")
		b.Branch(isa.Inst{Op: isa.OpBNEI, Src1: 1, Imm: 5}, "bad2")
		b.Branch(isa.Inst{Op: isa.OpB}, "end")
		b.Label("bad2")
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 10, Imm: 444})
		b.Label("end")
	})
	r := newRig(t, p)
	r.run(t, 1000)
	if r.core.X(10) != 0 {
		t.Fatalf("branching took a wrong path: X10=%d", r.core.X(10))
	}
}

func TestScalarFPAndMemory(t *testing.T) {
	p := asm(t, func(b *isa.Builder) {
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 1, Imm: 4096})
		b.Emit(isa.Inst{Op: isa.OpSLoadF, Dst: 1, Src1: 1})          // F1 = mem[4096] = 2.5
		b.Emit(isa.Inst{Op: isa.OpSFMovI, Dst: 2, FImm: 4})          // F2 = 4
		b.Emit(isa.Inst{Op: isa.OpSFMul, Dst: 3, Src1: 1, Src2: 2})  // 10
		b.Emit(isa.Inst{Op: isa.OpSFAdd, Dst: 4, Src1: 3, Src2: 1})  // 12.5
		b.Emit(isa.Inst{Op: isa.OpSFSub, Dst: 5, Src1: 4, Src2: 2})  // 8.5
		b.Emit(isa.Inst{Op: isa.OpSFDiv, Dst: 6, Src1: 3, Src2: 2})  // 2.5
		b.Emit(isa.Inst{Op: isa.OpSFMla, Dst: 6, Src1: 2, Src2: 2})  // 2.5+16=18.5
		b.Emit(isa.Inst{Op: isa.OpSFNeg, Dst: 7, Src1: 6})           // -18.5
		b.Emit(isa.Inst{Op: isa.OpSFAbs, Dst: 8, Src1: 7})           // 18.5
		b.Emit(isa.Inst{Op: isa.OpSFMax, Dst: 9, Src1: 7, Src2: 8})  // 18.5
		b.Emit(isa.Inst{Op: isa.OpSFMin, Dst: 10, Src1: 7, Src2: 8}) // -18.5
		b.Emit(isa.Inst{Op: isa.OpSFMovI, Dst: 11, FImm: 9})         //
		b.Emit(isa.Inst{Op: isa.OpSFSqrt, Dst: 11, Src1: 11})        // 3
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 2, Imm: 8192})          //
		b.Emit(isa.Inst{Op: isa.OpSStoreF, Dst: 4, Src1: 2})         // mem[8192] = 12.5
	})
	r := newRig(t, p)
	r.data.WriteF32(4096, 2.5)
	r.run(t, 10000)
	checks := map[isa.Reg]float32{3: 10, 4: 12.5, 5: 8.5, 6: 18.5, 7: -18.5, 8: 18.5, 9: 18.5, 10: -18.5, 11: 3}
	for reg, want := range checks {
		if got := r.core.F(reg); got != want {
			t.Errorf("F%d = %v, want %v", reg, got, want)
		}
	}
	if got := r.data.ReadF32(8192); got != 12.5 {
		t.Errorf("stored value = %v, want 12.5", got)
	}
}

var setVLSeq int

// emitSetVL emits the full Figure 9 protocol to configure a vector length:
// write <VL>, then spin on <status> so no later instruction runs under a
// stale length. Skipping the spin is a §6.4 violation — and the poison
// machinery turns it into NaNs, as a dedicated test verifies.
func emitSetVL(b *isa.Builder, vl int64) {
	setVLSeq++
	lbl := fmt.Sprintf("setvl%d", setVLSeq)
	b.Label(lbl)
	b.Emit(isa.Inst{Op: isa.OpMSR, Sys: isa.SysVL, Src1: isa.RegNone, Imm: vl})
	b.Emit(isa.Inst{Op: isa.OpMRS, Dst: 3, Sys: isa.SysStatus})
	if vl <= 8 { // feasible requests spin to success; infeasible ones fall through
		b.Branch(isa.Inst{Op: isa.OpBNEI, Src1: 3, Imm: 1}, lbl)
	}
}

func TestRdElemsAndIncVLTrackConfiguredLength(t *testing.T) {
	p := asm(t, func(b *isa.Builder) {
		emitSetVL(b, 3)
		b.Emit(isa.Inst{Op: isa.OpRdElems, Dst: 5})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 6, Imm: 1000})
		b.Emit(isa.Inst{Op: isa.OpIncVL, Dst: 6, Src1: 6, Imm: 4})
	})
	r := newRig(t, p)
	r.run(t, 1000)
	if r.core.X(5) != 12 {
		t.Fatalf("RDELEMS = %d, want 12 (3 granules)", r.core.X(5))
	}
	if r.core.X(6) != 1000+4*12 {
		t.Fatalf("INCVL = %d, want %d", r.core.X(6), 1000+4*12)
	}
}

func TestMRSStatusOrdersAfterMSRVL(t *testing.T) {
	// The status read must reflect THIS VL write, not a stale value:
	// request an infeasible length (9 > 8 ExeBUs) and expect status 0.
	p := asm(t, func(b *isa.Builder) {
		emitSetVL(b, 9)
		b.Emit(isa.Inst{Op: isa.OpMov, Dst: 4, Src1: 3})
		emitSetVL(b, 2)
		b.Emit(isa.Inst{Op: isa.OpMov, Dst: 5, Src1: 3})
	})
	r := newRig(t, p)
	r.run(t, 1000)
	if r.core.X(4) != 0 {
		t.Fatalf("status after infeasible request = %d, want 0", r.core.X(4))
	}
	if r.core.X(5) != 1 {
		t.Fatalf("status after feasible request = %d, want 1", r.core.X(5))
	}
}

func TestSpeculativeDecisionRead(t *testing.T) {
	// MRS <decision> resolves combinationally even with SVE backlog.
	p := asm(t, func(b *isa.Builder) {
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 1, Imm: int64(isa.PackOI(isa.OIPair{Issue: 1, Mem: 1}))})
		b.Emit(isa.Inst{Op: isa.OpMSR, Sys: isa.SysOI, Src1: 1})
		emitSetVL(b, 1)
		// Backlog of dependent vector work.
		b.Emit(isa.Inst{Op: isa.OpVDupI, Dst: 1, FImm: 1})
		for i := 0; i < 10; i++ {
			b.Emit(isa.Inst{Op: isa.OpVFAdd, Dst: 1, Src1: 1, Src2: 1})
		}
		b.Emit(isa.Inst{Op: isa.OpMRS, Dst: 4, Sys: isa.SysDecision})
	})
	r := newRig(t, p)
	r.run(t, 10000)
	if r.core.X(4) != 8 {
		t.Fatalf("decision = %d, want 8 (lone compute workload)", r.core.X(4))
	}
}

func TestVWhileSetsTailPredicate(t *testing.T) {
	// trip=10, idx=8, VL=2 granules (8 elems): active must be 2, and a
	// store after VWHILE must write only 2 elements.
	p := asm(t, func(b *isa.Builder) {
		emitSetVL(b, 2)
		b.Emit(isa.Inst{Op: isa.OpVDupI, Dst: 1, FImm: 5})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 25, Imm: 10})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 0, Imm: 8})
		b.Emit(isa.Inst{Op: isa.OpVWhile, Dst: 7, Src1: 25, Src2: 0})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 8, Imm: 4096})
		b.Emit(isa.Inst{Op: isa.OpVStore, Dst: 1, Src1: 8, Src2: isa.XZR})
		// Reset and store full width elsewhere.
		b.Emit(isa.Inst{Op: isa.OpVWhile, Dst: isa.RegNone, Imm: 1})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 9, Imm: 8192})
		b.Emit(isa.Inst{Op: isa.OpVStore, Dst: 1, Src1: 9, Src2: isa.XZR})
	})
	r := newRig(t, p)
	r.run(t, 10000)
	if r.core.X(7) != 2 {
		t.Fatalf("VWHILE result = %d, want 2", r.core.X(7))
	}
	if r.data.ReadF32(4096) != 5 || r.data.ReadF32(4096+4) != 5 {
		t.Fatal("predicated store wrote too little")
	}
	if r.data.ReadF32(4096+8) != 0 {
		t.Fatal("predicated store wrote beyond the tail")
	}
	if r.data.ReadF32(8192+28) != 5 {
		t.Fatal("reset predicate store must write all 8 elements")
	}
}

func TestVectorAddEndToEnd(t *testing.T) {
	// c[i] = a[i] + b[i] for 8 elements through the real pipeline.
	p := asm(t, func(b *isa.Builder) {
		emitSetVL(b, 2)
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 8, Imm: 4096})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 9, Imm: 8192})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 10, Imm: 12288})
		b.Emit(isa.Inst{Op: isa.OpVLoad, Dst: 1, Src1: 8, Src2: isa.XZR})
		b.Emit(isa.Inst{Op: isa.OpVLoad, Dst: 2, Src1: 9, Src2: isa.XZR})
		b.Emit(isa.Inst{Op: isa.OpVFAdd, Dst: 3, Src1: 1, Src2: 2})
		b.Emit(isa.Inst{Op: isa.OpVStore, Dst: 3, Src1: 10, Src2: isa.XZR})
	})
	r := newRig(t, p)
	for i := 0; i < 8; i++ {
		r.data.WriteF32(uint64(4096+4*i), float32(i))
		r.data.WriteF32(uint64(8192+4*i), float32(10*i))
	}
	r.run(t, 10000)
	for i := 0; i < 8; i++ {
		if got := r.data.ReadF32(uint64(12288 + 4*i)); got != float32(11*i) {
			t.Fatalf("c[%d] = %v, want %v", i, got, float32(11*i))
		}
	}
}

func TestMOBDelaysScalarMemBehindVectorMem(t *testing.T) {
	p := asm(t, func(b *isa.Builder) {
		emitSetVL(b, 2)
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 8, Imm: 1 << 20}) // cold: long DRAM latency
		b.Emit(isa.Inst{Op: isa.OpVLoad, Dst: 1, Src1: 8, Src2: isa.XZR})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 9, Imm: 4096})
		b.Emit(isa.Inst{Op: isa.OpSLoadF, Dst: 1, Src1: 9})
	})
	r := newRig(t, p)
	r.run(t, 100000)
	if r.stats.Get("cpu0.mob_stall") == 0 {
		t.Fatal("scalar load must wait for outstanding vector memory (Table 2)")
	}
}

func TestHaltStopsExecution(t *testing.T) {
	p := asm(t, func(b *isa.Builder) {
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 1, Imm: 7})
	})
	r := newRig(t, p)
	r.run(t, 100)
	cyclesAtHalt := r.core.HaltCycle()
	r.eng.Step()
	r.eng.Step()
	if r.core.HaltCycle() != cyclesAtHalt || !r.core.Halted() {
		t.Fatal("core must stay halted")
	}
}

func TestPhaseTrackingCounters(t *testing.T) {
	b := isa.NewBuilder("phases")
	b.SetPhase(0)
	for i := 0; i < 64; i++ {
		b.Emit(isa.Inst{Op: isa.OpAddI, Dst: 1, Src1: 1, Imm: 1})
	}
	b.SetPhase(1)
	for i := 0; i < 32; i++ {
		b.Emit(isa.Inst{Op: isa.OpAddI, Dst: 2, Src1: 2, Imm: 1})
	}
	b.SetPhase(-1)
	b.Emit(isa.Inst{Op: isa.OpHalt})
	p := b.MustFinalize()
	r := newRig(t, p)
	r.run(t, 1000)
	if r.stats.Get("cpu0.phase0.cycles") == 0 || r.stats.Get("cpu0.phase1.cycles") == 0 {
		t.Fatal("per-phase cycle counters missing")
	}
}

func TestSkippingStatusSpinIsCaughtByPoison(t *testing.T) {
	// Violating §6.4 — using a register value across a VL change without
	// re-initialization — must surface as NaN, not silent corruption.
	p := asm(t, func(b *isa.Builder) {
		emitSetVL(b, 2)
		b.Emit(isa.Inst{Op: isa.OpVDupI, Dst: 1, FImm: 7})
		emitSetVL(b, 4) // regrow WITHOUT re-initializing Z1
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 8, Imm: 4096})
		b.Emit(isa.Inst{Op: isa.OpVStore, Dst: 1, Src1: 8, Src2: isa.XZR})
	})
	r := newRig(t, p)
	r.run(t, 10000)
	v := r.data.ReadF32(4096)
	if v == v { // NaN != NaN
		t.Fatalf("stale register value %v survived reconfiguration; want NaN poison", v)
	}
}

func TestBGEAndVDupX(t *testing.T) {
	p := asm(t, func(b *isa.Builder) {
		emitSetVL(b, 1)
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 1, Imm: 5})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 2, Imm: 5})
		b.Branch(isa.Inst{Op: isa.OpBGE, Src1: 1, Src2: 2}, "ok") // 5 >= 5: taken
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 10, Imm: 1})
		b.Label("ok")
		// VDUPX broadcasts the float32 of an integer register value's
		// low bits... the payload is the raw X value cast to uint32.
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 4, Imm: 0x40400000}) // bits of 3.0f
		b.Emit(isa.Inst{Op: isa.OpVDupX, Dst: 1, Src1: 4})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 8, Imm: 4096})
		b.Emit(isa.Inst{Op: isa.OpVStore, Dst: 1, Src1: 8, Src2: isa.XZR})
	})
	r := newRig(t, p)
	r.run(t, 10000)
	if r.core.X(10) != 0 {
		t.Fatal("BGE should have been taken")
	}
	if got := r.data.ReadF32(4096); got != 3.0 {
		t.Fatalf("VDUPX lane = %v, want 3", got)
	}
}

func TestPoolBackpressureStallsCore(t *testing.T) {
	// With VL=0 nothing issues, so the pool fills and the core must stall
	// on transmit (counted in pool_full_stall).
	b := isa.NewBuilder("flood")
	for i := 0; i < 400; i++ {
		b.Emit(isa.Inst{Op: isa.OpVDupI, Dst: 1, FImm: 1})
	}
	b.Emit(isa.Inst{Op: isa.OpHalt})
	p := b.MustFinalize()
	r := newRig(t, p)
	for i := 0; i < 100; i++ {
		r.eng.Step()
	}
	if r.stats.Get("cpu0.pool_full_stall") == 0 {
		t.Fatal("expected pool backpressure stalls")
	}
	if r.core.Halted() {
		t.Fatal("core should still be blocked behind the full pool")
	}
}

func TestParkStopsFetching(t *testing.T) {
	p := asm(t, func(b *isa.Builder) {
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 1, Imm: 1})
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 1, Imm: 2})
	})
	r := newRig(t, p)
	r.core.Park()
	for i := 0; i < 10; i++ {
		r.eng.Step()
	}
	if r.core.PC() != 0 || r.core.Parked() == false {
		t.Fatal("parked core must not advance")
	}
	r.core.Unpark()
	r.run(t, 100)
	if r.core.X(1) != 2 {
		t.Fatal("unparked core must finish")
	}
}

func TestSnapshotRestoreSwapsPrograms(t *testing.T) {
	pa := asm(t, func(b *isa.Builder) {
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 1, Imm: 111})
	})
	pb := asm(t, func(b *isa.Builder) {
		b.Emit(isa.Inst{Op: isa.OpMovI, Dst: 1, Imm: 222})
	})
	r := newRig(t, pa)
	r.run(t, 100)
	if r.core.X(1) != 111 {
		t.Fatal("program A result wrong")
	}
	saved := r.core.Snapshot()
	r.core.SetProgram(pb)
	r.core.Restore(NewState())
	r.run(t, 100)
	if r.core.X(1) != 222 {
		t.Fatal("program B result wrong")
	}
	r.core.SetProgram(pa)
	r.core.Restore(saved)
	if r.core.X(1) != 111 || !r.core.Halted() {
		t.Fatal("restore must bring back A's state")
	}
}
