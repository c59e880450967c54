package osched

import (
	"testing"

	"occamy/internal/arch"
	"occamy/internal/compiler"
	"occamy/internal/fault"
	"occamy/internal/workload"
)

// hostWithTasks builds an Occamy host with the given workloads compiled and
// registered but NOT enqueued, so tests control admission timing cycle by
// cycle (the traffic layer's churn primitives: EnqueueReady, Suspend,
// Resume, Cancel).
func hostWithTasks(t *testing.T, cores int, ws []*workload.Workload, opts arch.Options) (*Scheduler, *arch.System, []*compiler.Compiled) {
	t.Helper()
	sys, err := BuildHost(arch.Occamy, cores, opts)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(sys, 1_000_000) // slice >> test horizon: no natural preemption
	var compiled []*compiler.Compiled
	for i, w := range ws {
		comp, err := CompileTask(sys, w, i, opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		compiled = append(compiled, comp)
		sched.AddTask(w.Name, comp.Program)
	}
	sys.Engine.Register(sched)
	ParkCores(sys)
	return sched, sys, compiled
}

func longTask(t *testing.T, name string, elems, repeats int) *workload.Workload {
	t.Helper()
	k := *workload.NewRegistry().Kernel(name)
	k.Elems, k.Repeats = elems, repeats
	return &workload.Workload{Name: name, Phases: []*workload.Kernel{&k}}
}

func runTo(t *testing.T, sys *arch.System, cycle uint64) {
	t.Helper()
	if _, err := sys.Engine.RunUntil(func() bool { return sys.Engine.Cycle() >= cycle }, 50_000_000); err != nil {
		t.Fatal(err)
	}
}

func verifyAll(t *testing.T, sys *arch.System, ws []*workload.Workload, compiled []*compiler.Compiled) {
	t.Helper()
	for i, comp := range compiled {
		for p := range comp.Phases {
			if err := comp.Phases[p].CheckResults(sys.Hier.Mem, 2e-3); err != nil {
				t.Errorf("task %d (%s): %v", i, ws[i].Name, err)
			}
		}
	}
}

// TestSchedulerSuspendMidStripResume is the tenant-exits-mid-strip edge
// case: a Suspend can land anywhere inside a strip, so the drain path must
// save the task's exact VL and vector state, release its lanes, and restore
// all of it on Resume — any other resume length silently corrupts the
// strip's store predicates.
func TestSchedulerSuspendMidStripResume(t *testing.T) {
	ws := []*workload.Workload{
		longTask(t, "dotProd", 20000, 3),
		longTask(t, "wsm51", 4000, 3),
	}
	sched, sys, compiled := hostWithTasks(t, 2, ws, arch.Options{Seed: 9})
	sched.EnqueueReady(0)
	sched.EnqueueReady(1)

	// Let both tasks dispatch and run deep into their first strips.
	if _, err := sys.Engine.RunUntil(func() bool {
		return sched.TaskStarted(0) && sched.TaskStarted(1) && sys.Engine.Cycle() >= 800
	}, 50_000_000); err != nil {
		t.Fatal(err)
	}
	c := sched.coreOf(0)
	if c < 0 || sched.switchState[c] != runFreely {
		t.Fatalf("task 0 not running freely (core %d)", c)
	}

	sched.Suspend(0)
	if _, err := sys.Engine.RunUntil(func() bool { return sched.TaskSuspendedNow(0) }, 50_000_000); err != nil {
		t.Fatal(err)
	}
	tk := sched.tasks[0]
	if !tk.vecValid {
		t.Fatal("suspend did not save vector state")
	}
	if tk.vl == 0 {
		t.Fatal("mid-strip suspend saved VL 0; task held lanes")
	}
	if sched.coreOf(0) >= 0 {
		t.Fatal("suspended task still occupies a core")
	}
	if got := sys.Clusters[0].Tbl().VL(c); got != 0 {
		t.Fatalf("core %d still holds %d granules after suspend", c, got)
	}

	// The tenant returns: the task must resume under its saved VL and both
	// tasks must produce bit-correct results.
	sched.Resume(0)
	if _, err := sys.Engine.RunUntil(func() bool { return sched.Done() }, 100_000_000); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, sys, ws, compiled)
}

// TestSchedulerAdmitWithZeroFreeLanes is the late-arrival edge case: a task
// admitted while a resident has grown to every usable granule (<AL> = 0)
// must still dispatch — it starts lane-less, writes its <OI>, and the
// fairness floor of the §5.2 planner carves it at least one granule.
func TestSchedulerAdmitWithZeroFreeLanes(t *testing.T) {
	ws := []*workload.Workload{
		longTask(t, "normL2", 24000, 2), // the hog
		longTask(t, "rgb2hsv", 3000, 2), // the late arrival
	}
	sched, sys, compiled := hostWithTasks(t, 2, ws, arch.Options{Seed: 13})
	tbl := sys.Clusters[0].Tbl()

	sched.EnqueueReady(0)
	if _, err := sys.Engine.RunUntil(func() bool {
		return sched.TaskStarted(0) && tbl.AL() == 0
	}, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if free := tbl.AL(); free != 0 {
		t.Fatalf("hog left %d granules free", free)
	}

	sched.EnqueueReady(1)
	if _, err := sys.Engine.RunUntil(func() bool {
		c := sched.coreOf(1)
		return c >= 0 && sched.switchState[c] == runFreely && tbl.VL(c) >= 1
	}, 50_000_000); err != nil {
		t.Fatal("late arrival never received its fairness-floor granule")
	}

	if _, err := sys.Engine.RunUntil(func() bool { return sched.Done() }, 100_000_000); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, sys, ws, compiled)
}

// TestSchedulerResumeAfterFaultRevocation is the re-admission edge case the
// RestoreVL path exists for: a task is suspended holding the full pool, a
// fault then shrinks the pool below its saved VL, and the tenant returns
// while the fault is live. Exact-VL reacquisition can never succeed, so the
// scheduler re-installs the allocation over-committed (transiently negative
// <AL>) and the task's own monitor shrinks it at the next strip boundary.
func TestSchedulerResumeAfterFaultRevocation(t *testing.T) {
	// 2 cores x 4 granules = 8 usable; the fault kills 3 for 40k cycles.
	faults := []fault.Fault{{Kind: fault.ExeBU, Count: 3, Cluster: fault.AnyCluster, At: 8000, For: 40_000}}
	ws := []*workload.Workload{
		longTask(t, "dotProd", 60000, 3),
		longTask(t, "wsm51", 3000, 2),
	}
	sched, sys, compiled := hostWithTasks(t, 2, ws, arch.Options{Seed: 17, Faults: faults})
	tbl := sys.Clusters[0].Tbl()

	// The hog runs alone and grows to the full pool, then is suspended
	// before the fault fires.
	sched.EnqueueReady(0)
	if _, err := sys.Engine.RunUntil(func() bool {
		return sched.TaskStarted(0) && tbl.AL() == 0 && sys.Engine.Cycle() >= 2000
	}, 50_000_000); err != nil {
		t.Fatal(err)
	}
	sched.Suspend(0)
	if _, err := sys.Engine.RunUntil(func() bool { return sched.TaskSuspendedNow(0) }, 50_000_000); err != nil {
		t.Fatal(err)
	}
	savedVL := sched.tasks[0].vl
	if savedVL == 0 {
		t.Fatal("suspend saved VL 0; expected the full pool")
	}

	// Ride past the fault injection; keep a second task running so the
	// machine is live while the pool shrinks.
	sched.EnqueueReady(1)
	runTo(t, sys, 10_000)
	if usable := tbl.Usable(); usable >= savedVL {
		t.Fatalf("fault did not shrink the pool below the saved VL (%d >= %d)", usable, savedVL)
	}

	// Re-admission during the fault window: exact reacquire is impossible,
	// so this exercises the over-committed RestoreVL path.
	sched.Resume(0)
	if _, err := sys.Engine.RunUntil(func() bool { return sched.TaskStarted(0) && sched.coreOf(0) >= 0 }, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Engine.RunUntil(func() bool { return sched.Done() }, 200_000_000); err != nil {
		t.Fatal(err)
	}
	if al := tbl.AL(); al < 0 {
		t.Fatalf("<AL> still negative (%d) after all tasks drained", al)
	}
	verifyAll(t, sys, ws, compiled)
}

// TestSchedulerNoSpuriousSwitchOnStaleQueue: canceling the only queued
// competitor must also cancel the pending preemption. The ready ring counts
// runnable entries only (stale entries are removed eagerly), so a slice
// expiry with nothing to dispatch must not park the core for a full context
// save/restore that re-installs the same task.
func TestSchedulerNoSpuriousSwitchOnStaleQueue(t *testing.T) {
	ws := []*workload.Workload{
		longTask(t, "dotProd", 20000, 2), // long-running resident
		longTask(t, "wsm51", 2000, 2),    // queued, then canceled
	}
	sys, err := BuildHost(arch.Occamy, 1, arch.Options{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(sys, 500) // slice far shorter than task 0's runtime
	for i, w := range ws {
		comp, err := CompileTask(sys, w, i, 29)
		if err != nil {
			t.Fatal(err)
		}
		sched.AddTask(w.Name, comp.Program)
	}
	sys.Engine.Register(sched)
	ParkCores(sys)

	sched.EnqueueReady(0)
	sched.EnqueueReady(1)
	if _, err := sys.Engine.RunUntil(func() bool { return sched.TaskStarted(0) }, 50_000_000); err != nil {
		t.Fatal(err)
	}
	sched.Cancel(1)
	if n := sched.QueueLen(); n != 0 {
		t.Fatalf("ready ring holds %d entries after canceling the only queued task", n)
	}
	if _, err := sys.Engine.RunUntil(func() bool { return sched.Done() }, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if !sched.TaskDone(0) {
		t.Fatal("resident task did not complete")
	}
	if sched.Switches != 0 {
		t.Fatalf("%d spurious context switches with an empty ready ring", sched.Switches)
	}
}

// TestSchedulerCancelQueuedAndRunning covers reneging: canceling a queued
// task discards it without ever dispatching; canceling a running task
// drains it off its core and frees the core for the next arrival.
func TestSchedulerCancelQueuedAndRunning(t *testing.T) {
	ws := []*workload.Workload{
		longTask(t, "dotProd", 20000, 3), // runs, then canceled
		longTask(t, "wsm51", 2000, 2),    // queued, canceled before dispatch
		longTask(t, "rho_eos4", 2000, 2), // completes normally
	}
	sched, sys, compiled := hostWithTasks(t, 1, ws, arch.Options{Seed: 23})
	sched.EnqueueReady(0)
	sched.EnqueueReady(1)
	if _, err := sys.Engine.RunUntil(func() bool { return sched.TaskStarted(0) }, 50_000_000); err != nil {
		t.Fatal(err)
	}

	sched.Cancel(1) // still queued: discarded in place
	if sched.TaskStarted(1) {
		t.Fatal("queued cancel raced a dispatch")
	}
	sched.Cancel(0) // running: must drain off the core first
	sched.EnqueueReady(2)
	if _, err := sys.Engine.RunUntil(func() bool { return sched.Done() }, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if !sched.TaskCanceled(0) || !sched.TaskCanceled(1) {
		t.Fatal("cancellations not recorded")
	}
	if sched.TaskStarted(1) {
		t.Fatal("canceled queued task was dispatched")
	}
	if !sched.TaskDone(2) {
		t.Fatal("survivor task did not complete")
	}
	// Only the survivor's results are contractual.
	for p := range compiled[2].Phases {
		if err := compiled[2].Phases[p].CheckResults(sys.Hier.Mem, 2e-3); err != nil {
			t.Errorf("task 2 (%s): %v", ws[2].Name, err)
		}
	}
}
