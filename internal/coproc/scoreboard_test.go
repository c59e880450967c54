package coproc

import (
	"slices"
	"strings"
	"testing"

	"occamy/internal/isa"
	"occamy/internal/mem"
	"occamy/internal/roofline"
	"occamy/internal/sim"
)

// TestScoreboardSameCycleWakeup: a fully predicated-off load completes the
// cycle it issues, so the compute that consumes it — parked on the load when
// both renamed — must re-arm and issue later in the same scan.
func TestScoreboardSameCycleWakeup(t *testing.T) {
	r := newRig(t, nil)
	r.setVL(t, 0, 2)
	r.cp.Transmit(&XInst{Op: isa.OpVLoad, Core: 0, Dst: 1, Addr: 4096, Active: 0, Width: 2})
	r.cp.Transmit(r.vinst(0, isa.OpVFAdd, 2, 1, 1, 8))
	r.tick(1)
	if m, c := r.cp.MemIssued(0), r.cp.ComputeIssued(0); m != 1 || c != 1 {
		t.Fatalf("after one tick: %d loads and %d computes issued, want 1 and 1", m, c)
	}
	if err := r.cp.CheckScoreboard(r.cycle); err != nil {
		t.Fatal(err)
	}
}

// TestScoreboardChecksProducerSlot: CheckScoreboard asserts the bound
// queueRing is sized for. A compute parked on an unissued load passes; once
// the load's slot reads as reused by the instruction queueRing positions
// younger, the check fails.
func TestScoreboardChecksProducerSlot(t *testing.T) {
	r := newRig(t, func(c *Config) { c.LHQ = 0 }) // the load never issues
	r.setVL(t, 0, 2)
	load := r.cp.cores[0].tail
	r.cp.Transmit(&XInst{Op: isa.OpVLoad, Core: 0, Dst: 1, Addr: 4096, Active: 8, Width: 2})
	r.cp.Transmit(r.vinst(0, isa.OpVFAdd, 2, 1, 1, 8))
	r.tick(2)
	if err := r.cp.CheckScoreboard(r.cycle); err != nil {
		t.Fatal(err)
	}
	r.cp.cores[0].at(load).seq += queueRing
	err := r.cp.CheckScoreboard(r.cycle)
	if err == nil || !strings.Contains(err.Error(), "the slot of its producer") {
		t.Fatalf("CheckScoreboard on a consumer whose producer's slot was reused: %v", err)
	}
}

// BenchmarkIssueScan measures the co-processor issue scan in its stalled
// steady state: one core whose full renamed window waits behind a load that
// cannot issue (the load queue has no entries). The window is a strip-mined
// multiply-accumulate body — two loads feeding an FMLA into a running
// accumulator — so every compute waits on an unissued producer and every
// younger load sits behind the blocked LSU. Nothing ever issues, so each op
// is one co-processor Tick re-examining the same window. allocs/op must be 0.
func BenchmarkIssueScan(b *testing.B) {
	stats := sim.NewStats()
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig(2), stats)
	cfg := DefaultConfig(2)
	cfg.LHQ = 0
	cp := New(cfg, h.VecCache, mem.NewMemory(), roofline.Default(), stats)
	var now uint64
	tick := func(n int) {
		for i := 0; i < n; i++ {
			cp.Tick(now)
			now++
		}
	}
	cp.Transmit(&XInst{Op: isa.OpMSR, Core: 0, Sys: isa.SysVL, Val: 2})
	tick(4)
	const acc = 31
	for i := 0; ; i++ {
		ra, rb := isa.Reg(1+i/3%10), isa.Reg(11+i/3%10)
		x := XInst{Op: isa.OpVLoad, Core: 0, Dst: ra, Addr: uint64(4096 + 64*i), Active: 8, Width: 2}
		switch i % 3 {
		case 1:
			x.Dst = rb
		case 2:
			x = XInst{Op: isa.OpVFMla, Core: 0, Dst: acc, Src1: ra, Src2: rb, Active: 8, Width: 2}
		}
		if cp.Transmit(&x) != TransmitOK {
			break
		}
	}
	tick(8) // rename fills the window
	if st := cp.cores[0]; st.renamed-st.head != window {
		b.Fatalf("renamed window holds %d instructions, want %d", st.renamed-st.head, window)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tick(b.N)
	b.StopTimer()
	if cp.MemIssued(0) != 0 || cp.ComputeIssued(0) != 0 {
		b.Fatal("the stalled window issued")
	}
}

// TestPoolRingAllocatedOnFirstTransmit: a core's pool ring exists only once
// the core has transmitted to this instance, a checkpoint carries a missing
// ring as nil, and restoring such a checkpoint drops a ring allocated since.
func TestPoolRingAllocatedOnFirstTransmit(t *testing.T) {
	r := newRig(t, nil)
	for c, st := range r.cp.cores {
		if st.queue != nil {
			t.Fatalf("core %d has a pool ring before any transmit", c)
		}
	}
	r.setVL(t, 0, 2)
	snap := r.cp.Checkpoint()
	if snap.cores[0].queue == nil || snap.cores[1].queue != nil {
		t.Fatalf("checkpoint rings: core 0 nil=%v, core 1 nil=%v; want a ring for core 0 only",
			snap.cores[0].queue == nil, snap.cores[1].queue == nil)
	}
	r.setVL(t, 1, 2)
	if r.cp.cores[1].queue == nil {
		t.Fatal("core 1 transmitted but has no pool ring")
	}
	r.cp.RestoreCheckpoint(snap)
	if r.cp.cores[0].queue == nil || r.cp.cores[1].queue != nil {
		t.Fatal("restore did not reproduce the checkpoint's rings")
	}
}

// TestRowStorageAllocatedOnFirstUse: a row's issue scoreboard and vector
// registers come with its first Transmit, the registers also with
// RestoreVecState; a row that never held any reads and saves as all zeros,
// and a restore that brings a pool ring brings a scoreboard with it.
func TestRowStorageAllocatedOnFirstUse(t *testing.T) {
	r := newRig(t, nil)
	for c, st := range r.cp.cores {
		if st.sb != nil || st.z != nil {
			t.Fatalf("core %d has a scoreboard (%v) or registers (%v) before any transmit", c, st.sb != nil, st.z != nil)
		}
	}
	zero := make([]float32, isa.NumZRegs*r.cp.cfg.Lanes())
	if got := r.cp.SaveVecState(1); !slices.Equal(got, zero) {
		t.Fatalf("untouched row saves %d values, want %d zeros", len(got), len(zero))
	}
	if r.cp.Z(1, 3, 0) != 0 {
		t.Fatal("untouched row reads non-zero")
	}
	r.setVL(t, 0, 2)
	snap := r.cp.Checkpoint()
	if st := r.cp.cores[0]; st.sb == nil || st.z == nil {
		t.Fatal("core 0 transmitted but has no scoreboard or registers")
	}
	if st := r.cp.cores[1]; st.sb != nil || st.z != nil {
		t.Fatal("core 1 never transmitted but holds a scoreboard or registers")
	}
	saved := slices.Clone(zero)
	saved[5] = 2.5
	r.cp.RestoreVecState(1, saved)
	if st := r.cp.cores[1]; st.z == nil || st.sb != nil || r.cp.Z(1, 0, 5) != 2.5 {
		t.Fatal("RestoreVecState did not install registers (and only registers) on core 1")
	}
	r.cp.RestoreVecState(1, nil)
	if r.cp.Z(1, 0, 5) != 0 {
		t.Fatal("RestoreVecState(nil) left a stale register")
	}
	fresh := newRig(t, nil)
	fresh.cp.RestoreCheckpoint(snap)
	if st := fresh.cp.cores[0]; st.queue == nil || st.sb == nil {
		t.Fatal("a restore that brought core 0's ring did not rebuild its scoreboard")
	}
	if err := fresh.cp.CheckScoreboard(fresh.cycle); err != nil {
		t.Fatal(err)
	}
}
