package osched

import (
	"testing"

	"occamy/internal/arch"
	"occamy/internal/fault"
	"occamy/internal/isa"
	"occamy/internal/lanemgr"
	"occamy/internal/roofline"
)

// TestRestoreAfterPoolShrink exercises Restore while an injected repartition
// is pending: the pool shrank while the task was descheduled, so the saved
// <VL> can no longer be granted and re-acquisition must settle for the
// planner's degraded suggestion instead of waiting for lanes that no longer
// exist.
func TestRestoreAfterPoolShrink(t *testing.T) {
	tbl := lanemgr.NewResourceTbl(lanemgr.Topology{Clusters: 1, Cores: 2, ExeBUs: 8})
	mgr := lanemgr.NewManager(roofline.Default(), tbl)
	oi := isa.OIPair{Issue: 1, Mem: 1}
	mgr.OnOIWrite(0, oi)
	mgr.OnOIWrite(1, oi)
	if !tbl.TryReconfigure(0, tbl.Decision(0)) || !tbl.TryReconfigure(1, tbl.Decision(1)) {
		t.Fatal("initial grants failed")
	}

	ctx, err := Save(mgr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.VL == 0 {
		t.Fatal("saved context holds no lanes; the scenario needs a stale VL")
	}

	// While task 0 is descheduled, a fault kills six of the eight units and
	// the controller replans over the survivors. Core 1 shrinks to its new
	// decision at a strip boundary (the drain-gated revocation path).
	tbl.Fail(6)
	mgr.Repartition()
	tbl.ForceVL(1, tbl.Decision(1))

	Restore(mgr, 0, ctx)
	dec := tbl.Decision(0)
	if dec <= 0 || dec > tbl.Usable() {
		t.Fatalf("post-fault decision = %d, want within (0, %d]", dec, tbl.Usable())
	}
	// The saved VL exceeds the whole surviving pool: granting it verbatim
	// can never succeed. The restore path re-installs it over-committed
	// (negative <AL>, like an in-flight fault) so the task resumes under
	// the exact length it was preempted with.
	if ctx.VL <= tbl.Usable() {
		t.Fatalf("scenario broken: saved VL %d fits the degraded pool %d", ctx.VL, tbl.Usable())
	}
	if tbl.TryReconfigure(0, ctx.VL) {
		t.Fatalf("granting the stale VL %d must fail on a %d-unit pool", ctx.VL, tbl.Usable())
	}
	tbl.RestoreVL(0, ctx.VL)
	if tbl.VL(0) != ctx.VL || !tbl.Status(0) {
		t.Fatalf("RestoreVL installed VL=%d status=%v, want %d/true", tbl.VL(0), tbl.Status(0), ctx.VL)
	}
	if tbl.AL() >= 0 {
		t.Fatalf("over-committed restore must leave <AL> negative, got %d", tbl.AL())
	}
	// Each task's partition monitor shrinks to its decision at its next
	// strip boundary; shrinks always succeed and repay the debt.
	if !tbl.TryReconfigure(0, dec) {
		t.Fatalf("monitor shrink to decision %d must succeed", dec)
	}
	tbl.ForceVL(1, tbl.Decision(1)) // the restore replanned core 1 too
	if tbl.AL() < 0 {
		t.Fatalf("<AL> still negative (%d) after both cores drained to their decisions", tbl.AL())
	}
}

// TestSchedulerUnderPermanentFault time-slices four tasks over two cores
// while half the ExeBUs fail mid-run. Context switches keep happening on the
// degraded pool; the watchdog converts any re-acquisition livelock into a
// test failure instead of a hang, and every task must still produce correct
// results.
func TestSchedulerUnderPermanentFault(t *testing.T) {
	ws := mkTasks(t, 4)
	sched, sys, compiled, err := OversubscribedOpts(ws, 2, 1200, 200_000_000, arch.Options{
		Seed:        7,
		Faults:      []fault.Fault{{Kind: fault.ExeBU, Count: 4, At: 3000}},
		StallCycles: 500_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Done() {
		t.Fatal("not all tasks completed")
	}
	if sched.Switches == 0 {
		t.Fatal("oversubscription must cause context switches")
	}
	if tbl := sys.Clusters[0].Tbl(); tbl.Failed() != 4 {
		t.Fatalf("failed units = %d, want 4", tbl.Failed())
	}
	for i, comp := range compiled {
		for p := range comp.Phases {
			if err := comp.Phases[p].CheckResults(sys.Hier.Mem, 2e-3); err != nil {
				t.Errorf("task %d (%s): %v", i, ws[i].Name, err)
			}
		}
	}
}

// TestSchedulerAcrossTransientFault opens a revocation drain window (six of
// eight units out for a while, then repaired) across many preemption drains:
// saves and restores overlap the fault controller's drain-gated shrinks in
// both directions, and the run must still complete losslessly.
func TestSchedulerAcrossTransientFault(t *testing.T) {
	ws := mkTasks(t, 6)
	sched, sys, compiled, err := OversubscribedOpts(ws, 2, 1000, 200_000_000, arch.Options{
		Seed:        11,
		Faults:      []fault.Fault{{Kind: fault.ExeBU, Count: 6, At: 2000, For: 30_000}},
		StallCycles: 500_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Done() {
		t.Fatal("not all tasks completed")
	}
	if sched.Switches < 4 {
		t.Fatalf("only %d switches", sched.Switches)
	}
	if tbl := sys.Clusters[0].Tbl(); tbl.Failed() != 0 {
		t.Fatalf("transient fault left %d units failed after repair", tbl.Failed())
	}
	for i, comp := range compiled {
		for p := range comp.Phases {
			if err := comp.Phases[p].CheckResults(sys.Hier.Mem, 2e-3); err != nil {
				t.Errorf("task %d (%s): %v", i, ws[i].Name, err)
			}
		}
	}
}
