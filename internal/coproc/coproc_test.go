package coproc

import (
	"math"
	"testing"

	"occamy/internal/isa"
	"occamy/internal/mem"
	"occamy/internal/roofline"
	"occamy/internal/sim"
)

// rig bundles a co-processor with its memory for direct-drive tests.
type rig struct {
	cp    *Coproc
	data  *mem.Memory
	cycle uint64
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	stats := sim.NewStats()
	data := mem.NewMemory()
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig(2), stats)
	cfg := DefaultConfig(2)
	if mutate != nil {
		mutate(&cfg)
	}
	cp := New(cfg, h.VecCache, data, roofline.Default(), stats)
	return &rig{cp: cp, data: data}
}

func (r *rig) tick(n int) {
	for i := 0; i < n; i++ {
		r.cp.Tick(r.cycle)
		r.cycle++
	}
}

// setVL drives the EM-SIMD protocol to give core c a vector length.
func (r *rig) setVL(t *testing.T, c, vl int) {
	t.Helper()
	if r.cp.Transmit(&XInst{Op: isa.OpMSR, Core: c, Sys: isa.SysVL, Val: uint32(vl)}) != TransmitOK {
		t.Fatal("transmit MSR VL failed")
	}
	r.tick(4)
	if got := r.cp.VL(c); got != vl {
		t.Fatalf("VL(%d) = %d, want %d", c, got, vl)
	}
}

func (r *rig) vinst(c int, op isa.Opcode, dst, s1, s2 isa.Reg, active int) *XInst {
	return &XInst{Op: op, Core: c, Dst: dst, Src1: s1, Src2: s2, Active: active, Width: r.cp.VL(c)}
}

func TestFunctionalVectorALU(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 2) // 8 elements

	x := XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 3, Active: 8, Width: 2}
	r.cp.Transmit(&x)
	x = XInst{Op: isa.OpVDupI, Core: 0, Dst: 2, FImm: 4, Active: 8, Width: 2}
	r.cp.Transmit(&x)
	r.cp.Transmit(r.vinst(0, isa.OpVFAdd, 3, 1, 2, 8))
	r.cp.Transmit(r.vinst(0, isa.OpVFMul, 4, 3, 1, 8))
	r.tick(10)
	for i := 0; i < 8; i++ {
		if got := r.cp.Z(0, 3, i); got != 7 {
			t.Fatalf("VFADD lane %d = %v, want 7", i, got)
		}
		if got := r.cp.Z(0, 4, i); got != 21 {
			t.Fatalf("VFMUL lane %d = %v, want 21", i, got)
		}
	}
}

func TestFunctionalLoadStoreRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 2)
	for i := 0; i < 8; i++ {
		r.data.WriteF32(uint64(4096+4*i), float32(i)+0.5)
	}
	r.cp.Transmit(&XInst{Op: isa.OpVLoad, Core: 0, Dst: 5, Addr: 4096, Active: 8, Width: 2})
	r.cp.Transmit(&XInst{Op: isa.OpVStore, Core: 0, Dst: 5, Addr: 8192, Active: 8, Width: 2})
	r.tick(400)
	for i := 0; i < 8; i++ {
		if got := r.data.ReadF32(uint64(8192 + 4*i)); got != float32(i)+0.5 {
			t.Fatalf("stored lane %d = %v", i, got)
		}
	}
	if !r.cp.Quiescent(0, r.cycle) {
		t.Fatal("core 0 should be quiescent")
	}
}

func TestPartialPredicateLimitsLanes(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 2)
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 9, Active: 8, Width: 2})
	// Tail iteration: only 3 active elements overwrite.
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 5, Active: 3, Width: 2})
	r.tick(6)
	want := []float32{5, 5, 5, 9, 9, 9, 9, 9}
	for i, w := range want {
		if got := r.cp.Z(0, 1, i); got != w {
			t.Fatalf("lane %d = %v, want %v", i, got, w)
		}
	}
}

func TestVFAddVFoldsActiveLanesOnly(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 2)
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 2, Active: 8, Width: 2})
	r.cp.Transmit(r.vinst(0, isa.OpVFAddV, 1, 1, isa.RegNone, 8))
	r.tick(10)
	if got := r.cp.Z(0, 1, 0); got != 16 {
		t.Fatalf("fold = %v, want 16", got)
	}
	for i := 1; i < 8; i++ {
		if r.cp.Z(0, 1, i) != 0 {
			t.Fatalf("lane %d not zeroed after fold", i)
		}
	}
}

func TestVMovX0RespondsWithLane0(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 1)
	var gotReg isa.Reg
	var gotVal uint64
	r.cp.SetResponder(func(core int, reg isa.Reg, val uint64, ready uint64) {
		gotReg, gotVal = reg, val
	})
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 7, FImm: 1.5, Active: 4, Width: 1})
	r.cp.Transmit(&XInst{Op: isa.OpVMovX0, Core: 0, Src1: 7, XDst: 28, Active: 4, Width: 1})
	r.tick(10)
	if gotReg != 28 {
		t.Fatalf("response register = %d, want 28", gotReg)
	}
	if math.Float32frombits(uint32(gotVal)) != 1.5 {
		t.Fatalf("response value = %v, want 1.5", math.Float32frombits(uint32(gotVal)))
	}
}

func TestComputeIssueBudgetIsTwoPerCycle(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 2)
	// 8 independent VDUPs: at 2 compute issues per cycle they need 4 cycles.
	for i := 0; i < 8; i++ {
		r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: isa.Reg(i), FImm: 1, Active: 8, Width: 2})
	}
	before := r.cp.ComputeIssued(0)
	r.tick(1)
	if got := r.cp.ComputeIssued(0) - before; got != 2 {
		t.Fatalf("issued %d compute µops in one cycle, want 2", got)
	}
	r.tick(3)
	if got := r.cp.ComputeIssued(0) - before; got != 8 {
		t.Fatalf("issued %d after 4 cycles, want 8", got)
	}
}

func TestDependentChainSerializesOnLatency(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 1)
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 1, Active: 4, Width: 1})
	// Chain of 4 dependent adds: each waits ComputeLat (4 cycles).
	for i := 0; i < 4; i++ {
		r.cp.Transmit(r.vinst(0, isa.OpVFAdd, 1, 1, 1, 4))
	}
	r.tick(2)
	issued := r.cp.ComputeIssued(0)
	if issued > 2 {
		t.Fatalf("dependent chain issued %d in 2 cycles", issued)
	}
	r.tick(30)
	if r.cp.ComputeIssued(0) != 5 {
		t.Fatalf("total issued = %d, want 5", r.cp.ComputeIssued(0))
	}
}

func TestOoOIssueBypassesStalledInstruction(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 1)
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 1, Active: 4, Width: 1})
	r.tick(1) // issue the producer; it completes at +4
	// Dependent add stalls; an independent VDUP behind it must still issue.
	r.cp.Transmit(r.vinst(0, isa.OpVFAdd, 2, 1, 1, 4))
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 3, FImm: 2, Active: 4, Width: 1})
	r.tick(1)
	if r.cp.Z(0, 3, 0) != 2 {
		t.Fatal("functional value must be applied at transmit")
	}
	snap := r.cp.CoreSnapshot(0)
	if snap.ComputeIssued < 2 { // producer + bypassing VDUP
		t.Fatalf("younger independent instruction did not bypass: issued=%d", snap.ComputeIssued)
	}
}

func TestMSROITriggersRepartition(t *testing.T) {
	r := newRig(t, nil)
	oi := isa.OIPair{Issue: 1, Mem: 1}
	r.cp.Transmit(&XInst{Op: isa.OpMSR, Core: 0, Sys: isa.SysOI, Val: isa.PackOI(oi)})
	r.tick(2)
	if r.cp.Manager().Repartitions != 1 {
		t.Fatalf("repartitions = %d, want 1", r.cp.Manager().Repartitions)
	}
	if r.cp.Tbl().Decision(0) != 8 {
		t.Fatalf("lone compute workload decision = %d, want all 8", r.cp.Tbl().Decision(0))
	}
}

func TestMSRVLWaitsForDrain(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 2)
	// A slow dependent chain keeps the pipeline busy.
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 1, Active: 8, Width: 2})
	r.cp.Transmit(r.vinst(0, isa.OpVFAdd, 1, 1, 1, 8))
	r.cp.Transmit(r.vinst(0, isa.OpVFAdd, 1, 1, 1, 8))
	r.cp.Transmit(&XInst{Op: isa.OpMSR, Core: 0, Sys: isa.SysVL, Val: 4})
	r.tick(6)
	if r.cp.VL(0) != 2 {
		t.Fatal("VL changed before the pipeline drained")
	}
	r.tick(30)
	if r.cp.VL(0) != 4 {
		t.Fatalf("VL = %d after drain, want 4", r.cp.VL(0))
	}
	if r.cp.DrainWaitCycles(0) == 0 {
		t.Fatal("drain wait not recorded")
	}
}

func TestReconfigurePoisonsRegisters(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 2)
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 7, Active: 8, Width: 2})
	r.tick(6)
	r.cp.Transmit(&XInst{Op: isa.OpMSR, Core: 0, Sys: isa.SysVL, Val: 3})
	r.tick(6)
	if v := float64(r.cp.Z(0, 1, 0)); !math.IsNaN(v) {
		t.Fatalf("register value survived reconfiguration: %v (freed RegBlks must not be preserved)", v)
	}
}

func TestReconfigureRejectedWhenLanesUnavailable(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 6)
	r.cp.Transmit(&XInst{Op: isa.OpMSR, Core: 1, Sys: isa.SysVL, Val: 4})
	r.tick(4)
	if r.cp.VL(1) != 0 {
		t.Fatal("infeasible request must not change VL")
	}
	if r.cp.Tbl().Status(1) {
		t.Fatal("<status> must read 0 after a rejected reconfiguration")
	}
	// After core 0 shrinks, the retry succeeds.
	r.setVL(t, 0, 2)
	r.setVL(t, 1, 4)
}

func TestEMSIMDFencesYoungerSVE(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 2)
	// Keep the pipeline busy so the MSR VL at the head waits for drain;
	// the VDUP behind it must NOT issue early (it belongs to the new VL
	// regime).
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 1, Active: 8, Width: 2})
	r.cp.Transmit(r.vinst(0, isa.OpVFAdd, 1, 1, 1, 8))
	r.cp.Transmit(&XInst{Op: isa.OpMSR, Core: 0, Sys: isa.SysVL, Val: 4})
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 2, FImm: 2, Active: 16, Width: 4})
	issuedBefore := r.cp.ComputeIssued(0)
	r.tick(1)
	// Only the two older SVE instructions may have issued.
	if r.cp.ComputeIssued(0)-issuedBefore > 2 {
		t.Fatal("younger SVE issued past a pending EM-SIMD instruction")
	}
	r.tick(30)
	if r.cp.VL(0) != 4 {
		t.Fatal("reconfiguration lost")
	}
	if r.cp.ComputeIssued(0) != 3 {
		t.Fatalf("compute issued = %d, want 3", r.cp.ComputeIssued(0))
	}
}

func TestSharedVRFRenameStalls(t *testing.T) {
	// With the shared full-width pool (FTS) and two cores issuing
	// long-latency loads, renaming must report stalls; with per-core
	// namespaces it must not.
	run := func(shared bool) uint64 {
		r := newRig(t, func(c *Config) {
			if shared {
				c.Elastic = false
				c.SharedIssue = true
				c.SharedVRF = true
			} else {
				c.Elastic = false
				c.FixedVLs = []int{4, 4}
			}
		})
		// Each core runs a long dependent chain: renamed-but-unissued
		// instructions hold destination registers, filling the window.
		// Per-core namespaces absorb one window each; the shared
		// full-width pool cannot hold two.
		for c := 0; c < 2; c++ {
			width := 4
			if shared {
				width = 8
			}
			r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: c, Dst: 1, FImm: 1, Active: 4 * width, Width: width})
		}
		for i := 0; i < 150; i++ {
			for c := 0; c < 2; c++ {
				width := 4
				if shared {
					width = 8
				}
				r.cp.Transmit(&XInst{
					Op: isa.OpVFAdd, Core: c, Dst: 1, Src1: 1, Src2: 1,
					Active: 4 * width, Width: width,
				})
			}
			r.tick(1)
		}
		r.tick(50)
		s0 := r.cp.CoreSnapshot(0)
		s1 := r.cp.CoreSnapshot(1)
		return s0.RenameStalls + s1.RenameStalls
	}
	if got := run(true); got == 0 {
		t.Fatal("shared VRF under pressure must rename-stall (Figure 13)")
	}
	if got := run(false); got != 0 {
		t.Fatalf("per-core namespaces must not rename-stall, got %d", got)
	}
}

func TestFTSFullWidthVL(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Elastic = false
		c.SharedIssue = true
		c.SharedVRF = true
	})
	if r.cp.VL(0) != 8 || r.cp.VL(1) != 8 {
		t.Fatalf("FTS effective VLs = %d/%d, want 8/8", r.cp.VL(0), r.cp.VL(1))
	}
}

func TestSharedIssueBudgetSplitsAcrossCores(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Elastic = false
		c.SharedIssue = true
		c.SharedVRF = true
	})
	for i := 0; i < 8; i++ {
		for c := 0; c < 2; c++ {
			r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: c, Dst: isa.Reg(i), FImm: 1, Active: 32, Width: 8})
		}
	}
	r.tick(1)
	total := r.cp.ComputeIssued(0) + r.cp.ComputeIssued(1)
	if total != 2 {
		t.Fatalf("shared budget issued %d µops in one cycle, want 2 total", total)
	}
	r.tick(10)
	if r.cp.ComputeIssued(0) == 0 || r.cp.ComputeIssued(1) == 0 {
		t.Fatal("round-robin must serve both cores")
	}
}

func TestTransmitBackpressure(t *testing.T) {
	r := newRig(t, nil)
	// VL stays 0: nothing can issue, so the pool fills.
	n := 0
	for {
		st := r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 1, Active: 0, Width: 0})
		if st != TransmitOK {
			break
		}
		n++
		if n > 10000 {
			t.Fatal("pool never filled")
		}
	}
	if n == 0 {
		t.Fatal("first transmit rejected")
	}
	if r.cp.QueueLen(0) != n {
		t.Fatalf("QueueLen = %d, want %d", r.cp.QueueLen(0), n)
	}
}

func TestUtilizationBounds(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 8)
	for i := 0; i < 64; i++ {
		r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: isa.Reg(i % 8), FImm: 1, Active: 32, Width: 8})
	}
	r.tick(32)
	u := r.cp.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %v out of range", u)
	}
}

func TestZeroWidthMemOpCompletesInstantly(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 1)
	r.cp.Transmit(&XInst{Op: isa.OpVLoad, Core: 0, Dst: 1, Addr: 4096, Active: 0, Width: 1})
	r.tick(2)
	if !r.cp.Quiescent(0, r.cycle) {
		t.Fatal("zero-width load must complete immediately")
	}
}

func TestStoresIssueInOrderAmongThemselves(t *testing.T) {
	// A store whose data is not ready must block younger stores (stores
	// keep program order in the LSU), while younger loads may bypass.
	r := newRig(t, nil)
	r.setVL(t, 0, 1)
	// Producer with 12-cycle latency (div) feeds store 1.
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 8, Active: 4, Width: 1})
	r.cp.Transmit(r.vinst(0, isa.OpVFDiv, 2, 1, 1, 4))
	r.cp.Transmit(&XInst{Op: isa.OpVStore, Core: 0, Dst: 2, Addr: 4096, Active: 4, Width: 1})
	r.cp.Transmit(&XInst{Op: isa.OpVStore, Core: 0, Dst: 1, Addr: 8192, Active: 4, Width: 1})
	r.cp.Transmit(&XInst{Op: isa.OpVLoad, Core: 0, Dst: 3, Addr: 12288, Active: 4, Width: 1})
	r.tick(3)
	snap := r.cp.CoreSnapshot(0)
	// After 3 cycles: the div (done ~+12) holds store 1; store 2 must not
	// have issued, but the load may have.
	if snap.MemIssued == 0 {
		t.Fatal("the load should have bypassed the blocked stores")
	}
	if snap.MemIssued > 1 {
		t.Fatalf("younger store issued past a blocked older store (mem issued = %d)", snap.MemIssued)
	}
	r.tick(40)
	if r.cp.CoreSnapshot(0).MemIssued != 3 {
		t.Fatalf("not all memory ops completed: %d", r.cp.CoreSnapshot(0).MemIssued)
	}
}

func TestIntegerVectorLatencyCheaper(t *testing.T) {
	// Integer lane ops complete in IntLat (2) instead of ComputeLat (4):
	// a dependent integer chain of 8 finishes in ~16+e cycles, an FP one
	// in ~32+e.
	run := func(op isa.Opcode) uint64 {
		r := newRig(t, nil)
		r.setVL(t, 0, 1)
		r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 1, Active: 4, Width: 1})
		for i := 0; i < 8; i++ {
			r.cp.Transmit(r.vinst(0, op, 1, 1, 1, 4))
		}
		for i := uint64(0); i < 100; i++ {
			if r.cp.Quiescent(0, r.cycle) && r.cp.ComputeIssued(0) == 9 {
				return i
			}
			r.tick(1)
		}
		return 100
	}
	fp := run(isa.OpVFAdd)
	in := run(isa.OpVIAdd)
	if in >= fp {
		t.Fatalf("integer chain (%d cycles) must beat FP chain (%d)", in, fp)
	}
}

func TestWindowBoundsOutOfOrderDistance(t *testing.T) {
	// An instruction more than `window` entries behind the head must not
	// issue even if ready: a blocked head chain plus a far-away
	// independent op.
	r := newRig(t, nil)
	r.setVL(t, 0, 1)
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 1, FImm: 1, Active: 4, Width: 1})
	r.tick(1)
	// Long dependent chain fills well past the window.
	n := window + 20
	for i := 0; i < n; i++ {
		r.cp.Transmit(r.vinst(0, isa.OpVFAdd, 1, 1, 1, 4))
	}
	// Independent instruction at the tail, outside the window.
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 2, FImm: 2, Active: 4, Width: 1})
	r.tick(1)
	// Within one cycle only the chain head (and possibly one more after
	// its completion) can have issued; the tail VDUP must still be
	// outside the window.
	if issued := r.cp.ComputeIssued(0); issued > uint64(window) {
		t.Fatalf("issued %d µops with a serial chain — window not enforced", issued)
	}
	// Eventually everything completes.
	r.tick(5 * (n + 10))
	if got := r.cp.ComputeIssued(0); got != uint64(n+2) {
		t.Fatalf("total issued = %d, want %d", got, n+2)
	}
}

func TestVecStateSaveRestore(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 2)
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 5, FImm: 42, Active: 8, Width: 2})
	r.tick(6)
	saved := r.cp.SaveVecState(0)
	r.cp.Transmit(&XInst{Op: isa.OpVDupI, Core: 0, Dst: 5, FImm: -1, Active: 8, Width: 2})
	r.tick(6)
	if r.cp.Z(0, 5, 0) != -1 {
		t.Fatal("overwrite lost")
	}
	r.cp.RestoreVecState(0, saved)
	if r.cp.Z(0, 5, 0) != 42 || r.cp.Z(0, 5, 7) != 42 {
		t.Fatal("restore incomplete")
	}
}

func TestLaneEventLogShapes(t *testing.T) {
	r := newRig(t, nil)
	r.cp.Transmit(&XInst{Op: isa.OpMSR, Core: 0, Sys: isa.SysOI, Val: isa.PackOI(isa.OIPair{Issue: 1, Mem: 1})})
	r.tick(2)
	r.cp.Transmit(&XInst{Op: isa.OpMSR, Core: 0, Sys: isa.SysVL, Val: 3})
	r.tick(2)
	r.cp.Transmit(&XInst{Op: isa.OpMSR, Core: 1, Sys: isa.SysVL, Val: 7}) // infeasible: 3+7 > 8
	r.tick(2)
	kinds := map[string]int{}
	for _, e := range r.cp.LaneEvents() {
		kinds[e.Kind]++
	}
	if kinds["repartition"] != 1 || kinds["reconfigure"] != 1 || kinds["reject"] != 1 {
		t.Fatalf("event kinds = %v", kinds)
	}
}
