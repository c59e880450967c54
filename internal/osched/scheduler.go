package osched

import (
	"fmt"

	"occamy/internal/arch"
	"occamy/internal/compiler"
	"occamy/internal/coproc"
	"occamy/internal/cpu"
	"occamy/internal/digest"
	"occamy/internal/isa"
	"occamy/internal/sim"
	"occamy/internal/workload"
)

// Scheduler is a preemptive OS scheduler over a built system: it time-slices
// more tasks than cores, saving and restoring full contexts — scalar
// registers, vector registers and (on the elastic architecture) the five
// EM-SIMD dedicated registers — at quiescent points only, exactly as §5
// prescribes ("the OS will save the contexts ... when all the pipelines
// (including those in Occamy) are drained, and restore <OI> using MSR to
// trigger lane partitioning").
//
// It extends the paper: §5 assumes lane partitioning and task scheduling
// work independently; this realizes the interaction so it can be studied
// (see TestSchedulerOversubscribed and examples/scheduler). Tasks are
// admitted through a FIFO ready ring — either all at once (Start, the
// classic oversubscribed batch) or one by one as they arrive
// (EnqueueReady, driven by internal/traffic) — and can be suspended,
// resumed and canceled mid-run for tenant-churn scenarios.
//
// On non-elastic architectures (Private, FTS, VLS) tasks are compiled
// VL-agnostic (compiler.ModeFixed), so contexts migrate freely between
// cores with different fixed vector lengths and no EM-SIMD state exists to
// save; the elastic-only steps are skipped.
type Scheduler struct {
	sys     *arch.System
	slice   uint64
	elastic bool

	// names and progs are each task's name and compiled program: wiring,
	// not state.
	names []string
	progs []*isa.Program

	SchedState

	hooks Hooks
}

// SchedState is the scheduler's checkpointed state, composable with
// arch.System.Checkpoint for bit-identical forked runs. A core's program is
// wiring outside the system checkpoint, so the scheduler records which
// task's program each core holds and Restore reinstalls it.
type SchedState struct {
	// tasks holds every task's saved context; running[c] is the task id
	// on core c (-1 = idle).
	tasks   []TaskState
	running []int
	// prog[c] is the task whose program core c holds (-1: the parked-core
	// halt program). Dispatch sets it, so a core mid-switch holds the
	// incoming task's program.
	prog []int

	// switchState drives the per-core preemption state machine.
	switchState []switchPhase
	sliceEnd    []uint64
	pendingIn   []int // task id being switched in (during restore)

	// queue is the FIFO ready ring (circular buffer, presized at AddTask so
	// steady-state admission never allocates). Tasks canceled or suspended
	// while queued are removed eagerly (removeQueued), so qlen counts
	// runnable entries only — the preemption trigger and NextWake key off
	// it, and a stale count would park cores for switches that dispatch
	// nothing.
	queue []int32
	qhead int
	qlen  int

	// Switches counts completed context switches (preemptions and
	// evictions, not completions).
	Switches uint64
}

// Hooks observes task lifecycle transitions; all methods are called from
// the scheduler's Tick, in deterministic order. A nil Hooks is valid.
type Hooks interface {
	// TaskRunning fires when a task (re)starts executing on a core; first
	// is true on its very first dispatch.
	TaskRunning(id int, now uint64, first bool)
	// TaskPreempted fires when a task's context is saved and the task is
	// returned to the ready ring.
	TaskPreempted(id int, now uint64)
	// TaskSuspended fires when a running task is forced off its core by
	// Suspend or Cancel (tenant churn) after its context is saved.
	TaskSuspended(id int, now uint64)
	// TaskCompleted fires when a task halts and its pipelines drain.
	TaskCompleted(id int, now uint64)
}

// TaskState is one task's saved context and lifecycle flags.
type TaskState struct {
	st  cpu.State
	vec []float32
	em  Context
	vl  int // lanes held when preempted (granules)

	vecValid  bool // vec holds a real saved state (not just a warm buffer)
	started   bool
	done      bool
	canceled  bool
	suspended bool
	enqueued  bool
	evict     bool // running task: deschedule at next quiescent point
}

type switchPhase uint8

const (
	runFreely switchPhase = iota
	draining              // parked, waiting for co-processor quiescence
	acquiring             // restoring: waiting to re-acquire the saved VL
)

// NewScheduler wraps an already-built system whose cores were created with
// placeholder programs; use Oversubscribed for the common batch case.
func NewScheduler(sys *arch.System, slice uint64) *Scheduler {
	n := len(sys.Cores)
	s := &Scheduler{
		sys:     sys,
		slice:   slice,
		elastic: sys.Kind == arch.Occamy,
		SchedState: SchedState{
			running:     make([]int, n),
			prog:        make([]int, n),
			switchState: make([]switchPhase, n),
			sliceEnd:    make([]uint64, n),
			pendingIn:   make([]int, n),
		},
	}
	for c := 0; c < n; c++ {
		s.running[c] = -1
		s.prog[c] = -1
		s.pendingIn[c] = -1
	}
	return s
}

// SetHooks installs the lifecycle observer (nil disables).
func (s *Scheduler) SetHooks(h Hooks) { s.hooks = h }

// AddTask registers a task running prog from its boot context. It
// pre-warms every core's phase-name pool and the task's vector save buffer
// so that no later dispatch, preemption or save on the tick path allocates.
func (s *Scheduler) AddTask(name string, prog *isa.Program) int {
	for _, core := range s.sys.Cores {
		core.PrewarmPhases(prog.NumPhases)
	}
	s.names = append(s.names, name)
	s.progs = append(s.progs, prog)
	s.tasks = append(s.tasks, TaskState{
		st:  cpu.NewState(),
		vec: s.sys.Clusters[0].SaveVecState(0), // right length; contents unused until vecValid
	})
	s.growQueue(len(s.tasks) + 1)
	return len(s.tasks) - 1
}

// growQueue resizes the ready ring to hold at least n entries, preserving
// FIFO order. Called at AddTask time only — the ring never grows mid-run.
func (s *Scheduler) growQueue(n int) {
	if len(s.queue) >= n {
		return
	}
	nq := make([]int32, 2*n)
	for i := 0; i < s.qlen; i++ {
		nq[i] = s.queue[(s.qhead+i)%len(s.queue)]
	}
	s.queue = nq
	s.qhead = 0
}

func (s *Scheduler) enqueue(id int) {
	t := &s.tasks[id]
	if t.enqueued {
		return
	}
	if s.qlen == len(s.queue) {
		s.growQueue(s.qlen + 1) // unreachable after AddTask presizing
	}
	s.queue[(s.qhead+s.qlen)%len(s.queue)] = int32(id)
	s.qlen++
	t.enqueued = true
}

// removeQueued deletes task id's ring entry (if any), preserving the FIFO
// order of the remaining entries. Alloc-free: entries are compacted within
// the existing buffer.
func (s *Scheduler) removeQueued(id int) {
	t := &s.tasks[id]
	if !t.enqueued {
		return
	}
	n := len(s.queue)
	w := 0
	for i := 0; i < s.qlen; i++ {
		v := s.queue[(s.qhead+i)%n]
		if int(v) == id {
			continue
		}
		s.queue[(s.qhead+w)%n] = v
		w++
	}
	s.qlen = w
	t.enqueued = false
}

// popReady returns the next runnable task from the ring, or -1. The stale
// check is defensive: eager removal keeps the ring runnable-only.
func (s *Scheduler) popReady() int {
	for s.qlen > 0 {
		id := int(s.queue[s.qhead])
		s.qhead = (s.qhead + 1) % len(s.queue)
		s.qlen--
		t := &s.tasks[id]
		t.enqueued = false
		if t.done || t.canceled || t.suspended {
			continue
		}
		return id
	}
	return -1
}

// EnqueueReady admits task id to the ready ring (open-loop arrival). Safe
// to call from another component's Tick in the same cycle; the scheduler
// ticks after its producers and will consider the task this cycle.
func (s *Scheduler) EnqueueReady(id int) {
	t := &s.tasks[id]
	if t.done || t.canceled || t.suspended {
		return
	}
	s.enqueue(id)
}

// Suspend forces task id off the system at the next quiescent point: a
// running task drains and saves its context; a queued task is parked where
// it stands. Resume re-admits it. Models a tenant leaving.
func (s *Scheduler) Suspend(id int) {
	t := &s.tasks[id]
	if t.done || t.canceled || t.suspended {
		return
	}
	if c := s.coreOf(id); c >= 0 {
		// Mid-strip is fine: the drain path saves the exact VL.
		t.evict = true
		if s.switchState[c] == runFreely {
			s.sys.Cores[c].Park()
			s.switchState[c] = draining
		}
		return
	}
	s.removeQueued(id)
	t.suspended = true
}

// Resume re-admits a suspended task (tenant re-entry). Its saved context —
// including the exact VL it was preempted with — is restored on dispatch.
func (s *Scheduler) Resume(id int) {
	t := &s.tasks[id]
	if t.done || t.canceled || !t.suspended {
		return
	}
	t.suspended = false
	s.enqueue(id)
}

// Cancel permanently removes task id: queued work is discarded, a running
// task is drained off its core first. Models reneging on tenant exit.
func (s *Scheduler) Cancel(id int) {
	t := &s.tasks[id]
	if t.done || t.canceled {
		return
	}
	t.canceled = true
	if c := s.coreOf(id); c >= 0 {
		t.evict = true
		if s.switchState[c] == runFreely {
			s.sys.Cores[c].Park()
			s.switchState[c] = draining
		}
		return
	}
	s.removeQueued(id)
}

func (s *Scheduler) coreOf(id int) int {
	for c, r := range s.running {
		if r == id {
			return c
		}
	}
	for c, p := range s.pendingIn {
		if p == id {
			return c
		}
	}
	return -1
}

// Start admits every registered task and dispatches onto all cores (the
// classic oversubscribed batch entry point).
func (s *Scheduler) Start() {
	for id := range s.tasks {
		s.EnqueueReady(id)
	}
	for c := range s.running {
		if next := s.popReady(); next >= 0 {
			s.dispatch(c, next, 0)
		}
	}
}

// dispatch begins switching task id onto core c.
func (s *Scheduler) dispatch(c, id int, now uint64) {
	t := &s.tasks[id]
	core := s.sys.Cores[c]
	core.SetProgram(s.progs[id])
	core.Restore(t.st)
	core.Park()
	s.prog[c] = id
	home := s.home(c)
	if t.vecValid {
		home.RestoreVecState(c, t.vec)
	}
	if s.elastic {
		// Restoring a non-zero <OI> triggers a repartition (§5), so the
		// incoming task's behaviour immediately influences the plan.
		Restore(home.Manager(), c, t.em)
	}
	s.pendingIn[c] = id
	s.switchState[c] = acquiring
	_ = now
}

// home returns the co-processor instance core c transmits to: its context
// is saved from and restored to that cluster.
func (s *Scheduler) home(c int) *coproc.Coproc { return s.sys.Cplx.Cluster(s.sys.Cplx.Home(c)) }

// Name implements sim.Component.
func (s *Scheduler) Name() string { return "os-scheduler" }

// Tick implements sim.Component: runs the per-core scheduling state machine.
// Registered after the cores and the co-processor, it sees a consistent
// end-of-cycle view.
func (s *Scheduler) Tick(now uint64) {
	for c := range s.running {
		switch s.switchState[c] {
		case runFreely:
			s.tickRunning(c, now)
		case draining:
			s.tickDraining(c, now)
		case acquiring:
			s.tickAcquiring(c, now)
		}
	}
}

func (s *Scheduler) tickRunning(c int, now uint64) {
	id := s.running[c]
	if id < 0 {
		// Idle core: adopt any waiting task.
		if next := s.popReady(); next >= 0 {
			s.dispatch(c, next, now)
		}
		return
	}
	t := &s.tasks[id]
	core := s.sys.Cores[c]
	if core.Halted() && s.sys.Cplx.Quiescent(c, now) {
		// Task finished: release its context and the core.
		t.done = true
		t.st = core.Snapshot()
		s.running[c] = -1
		if s.hooks != nil {
			s.hooks.TaskCompleted(id, now)
		}
		if next := s.popReady(); next >= 0 {
			s.dispatch(c, next, now)
		} else if s.elastic {
			// Nobody to run: hand the dead task's lanes back to the pool
			// so peers can grow instead of idling them until the next
			// arrival. Save captures-and-releases; the context is dead.
			_, _ = Save(s.home(c).Manager(), c)
		}
		return
	}
	if now >= s.sliceEnd[c] && s.qlen > 0 {
		// Preempt: stop fetching and wait for the pipelines to drain.
		core.Park()
		s.switchState[c] = draining
	}
}

func (s *Scheduler) tickDraining(c int, now uint64) {
	if !s.sys.Cplx.Quiescent(c, now) {
		return
	}
	id := s.running[c]
	t := &s.tasks[id]
	core := s.sys.Cores[c]
	home := s.home(c)
	// Save the full context: scalar, vector and (elastic only) EM-SIMD
	// registers. The task's save buffer was preallocated at AddTask, so
	// preemptions of a long-lived task do not allocate.
	t.st = core.Snapshot()
	t.vec = home.CopyVecState(c, t.vec)
	t.vecValid = true
	// Record the preemption-time width for every mode: fixed-mode cores can
	// also change VL while the task is off-core (a fault revocation landing
	// at another task's strip boundary), and the mid-strip state only
	// resumes soundly under this exact width.
	t.vl = home.Tbl().VL(c)
	if s.elastic {
		ctx, err := Save(home.Manager(), c)
		if err != nil {
			panic(fmt.Sprintf("osched: %v", err)) // quiescence was checked
		}
		t.em = ctx
	}
	s.running[c] = -1
	s.Switches++
	evicted := t.evict
	t.evict = false
	if evicted {
		if !t.canceled {
			t.suspended = true
		}
		if s.hooks != nil {
			s.hooks.TaskSuspended(id, now)
		}
		if next := s.popReady(); next >= 0 {
			s.dispatch(c, next, now)
		} else {
			s.switchState[c] = runFreely
		}
		return
	}
	if s.hooks != nil {
		s.hooks.TaskPreempted(id, now)
	}
	if next := s.popReady(); next >= 0 {
		s.enqueue(id)
		s.dispatch(c, next, now)
	} else {
		// Nobody waiting after all: resume the same task.
		s.dispatch(c, id, now)
	}
}

func (s *Scheduler) tickAcquiring(c int, now uint64) {
	id := s.pendingIn[c]
	t := &s.tasks[id]
	// Re-acquire the lanes the task held when preempted before letting
	// its SVE instructions resume. A task that held none (or was never
	// started) can run immediately — its own prologue/monitor negotiates.
	// The task MUST resume under exactly the VL it was preempted with: the
	// switch can land mid-strip, and the strip's bookkeeping (elements per
	// iteration, store predicates) silently corrupts under any other
	// length — elastic code only changes VL at strip boundaries.
	if s.elastic && t.vl > 0 {
		tbl := s.home(c).Tbl()
		if !tbl.TryReconfigure(c, t.vl) {
			if t.vl <= tbl.Usable() {
				return // retry next cycle; peers' monitors will release
			}
			// A fault shrank the pool below the saved VL while the task
			// was descheduled, so this grant can never succeed. Re-install
			// the allocation over-committed — the same transiently
			// negative <AL> that follows an in-flight fault — and let the
			// task's own partition monitor shrink it to the planner's
			// decision at its next strip boundary, where it is safe.
			tbl.RestoreVL(c, t.vl)
		}
	} else if !s.elastic && t.vl > 0 {
		// Fixed-mode binaries never renegotiate, but a fault revocation can
		// have shrunk the core's width while the task was off-core. Unlike
		// the elastic case there is no monitor to repay an over-commit, so
		// the resume must wait until the exact width is re-grantable (the
		// transient fault's repair returns the units). A permanent loss
		// leaves the task waiting — the watchdog's DNF, the honest
		// static-partitioning outcome.
		if tbl := s.home(c).Tbl(); tbl.VL(c) != t.vl && !tbl.TryReconfigure(c, t.vl) {
			return // retry next cycle
		}
	}
	s.pendingIn[c] = -1
	s.running[c] = id
	s.sliceEnd[c] = now + s.slice
	s.switchState[c] = runFreely
	s.sys.Cores[c].Unpark()
	first := !t.started
	t.started = true
	if s.hooks != nil {
		s.hooks.TaskRunning(id, now, first)
	}
	if t.evict {
		// Suspend/Cancel landed while the task was mid-acquire: honor it
		// now that the context is installed, via the normal drain path.
		s.sys.Cores[c].Park()
		s.switchState[c] = draining
	}
}

// NextWake implements sim.Sleeper so oversubscribed and traffic-driven runs
// can still skip quiescent windows. The scheduler is quiescent — no Tick on
// [now, wake) changes its state — exactly when every core runs freely, no
// running core has halted (a completion it must process), no idle core has
// ready work, and every preemption horizon (slice end with a non-empty ready
// ring) lies in the future. Completions cannot slip into a skipped window:
// a core must tick for real to execute HALT, and the very next probe sees
// Halted() and goes live.
func (s *Scheduler) NextWake(now uint64) (uint64, bool) {
	wake := uint64(sim.NeverWake)
	for c := range s.running {
		if s.switchState[c] != runFreely {
			return 0, false
		}
		id := s.running[c]
		if id < 0 {
			if s.qlen > 0 {
				return 0, false
			}
			continue
		}
		if s.sys.Cores[c].Halted() {
			return 0, false
		}
		if s.qlen > 0 {
			if now >= s.sliceEnd[c] {
				return 0, false
			}
			if s.sliceEnd[c] < wake {
				wake = s.sliceEnd[c]
			}
		}
	}
	return wake, true
}

// SkipTicks implements sim.Sleeper; the scheduler keys everything off
// absolute cycle numbers, so skipped windows need no catch-up.
func (s *Scheduler) SkipTicks(from, n uint64) {}

// Done reports whether every task has completed or been canceled.
func (s *Scheduler) Done() bool {
	for i := range s.tasks {
		if t := &s.tasks[i]; !t.done && !t.canceled {
			return false
		}
	}
	return true
}

// NumTasks returns the number of registered tasks.
func (s *Scheduler) NumTasks() int { return len(s.tasks) }

// TaskDone reports whether task id ran to completion.
func (s *Scheduler) TaskDone(id int) bool { return s.tasks[id].done }

// TaskStarted reports whether task id was ever dispatched.
func (s *Scheduler) TaskStarted(id int) bool { return s.tasks[id].started }

// TaskCanceled reports whether task id was canceled.
func (s *Scheduler) TaskCanceled(id int) bool { return s.tasks[id].canceled }

// TaskSuspendedNow reports whether task id is currently suspended.
func (s *Scheduler) TaskSuspendedNow(id int) bool { return s.tasks[id].suspended }

// TaskRunningNow reports whether task id currently occupies a core
// (executing or mid-switch).
func (s *Scheduler) TaskRunningNow(id int) bool { return s.coreOf(id) >= 0 }

// QueueLen returns the current ready-ring occupancy. Every counted entry is
// runnable: canceled/suspended tasks are removed from the ring eagerly.
func (s *Scheduler) QueueLen() int { return s.qlen }

// RunningOn returns the task id executing on core c, or -1.
func (s *Scheduler) RunningOn(c int) int { return s.running[c] }

// TaskNames returns the registered task names in order.
func (s *Scheduler) TaskNames() []string {
	return append([]string(nil), s.names...)
}

// Snapshot captures the scheduler state. The returned state shares nothing
// mutable with the live scheduler.
func (s *Scheduler) Snapshot() SchedState { return digest.Clone(&s.SchedState) }

// Restore reinstalls a state captured by Snapshot on the same scheduler
// shape (same cores, same registered tasks), then reinstalls on every core
// the program the snapshot says it holds.
func (s *Scheduler) Restore(st SchedState) {
	digest.Copy(&s.SchedState, &st)
	for c, id := range s.prog {
		prog := haltProg
		if id >= 0 {
			prog = s.progs[id]
		}
		s.sys.Cores[c].SetProgram(prog)
	}
}

// Oversubscribed builds an elastic system with the given workloads
// time-sliced over cores CPU cores, runs it to completion and returns the
// scheduler (for switch counts), the system (for verification) and the
// compiled workloads in task order.
func Oversubscribed(ws []*workload.Workload, cores int, slice uint64, seed uint64, maxCycles uint64) (*Scheduler, *arch.System, []*compiler.Compiled, error) {
	return OversubscribedOpts(ws, cores, slice, maxCycles, arch.Options{Seed: seed})
}

// OversubscribedOpts is Oversubscribed with full control over the build
// options — notably fault injection and the forward-progress watchdog, so
// context switching can be exercised concurrently with lane revocation.
func OversubscribedOpts(ws []*workload.Workload, cores int, slice uint64, maxCycles uint64, opts arch.Options) (*Scheduler, *arch.System, []*compiler.Compiled, error) {
	if len(ws) < cores {
		return nil, nil, nil, fmt.Errorf("osched: need at least %d workloads", cores)
	}
	sys, err := BuildHost(arch.Occamy, cores, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	sched := NewScheduler(sys, slice)
	var compiled []*compiler.Compiled
	for i, w := range ws {
		comp, err := CompileTask(sys, w, i, opts.Seed)
		if err != nil {
			return nil, nil, nil, err
		}
		compiled = append(compiled, comp)
		sched.AddTask(w.Name, comp.Program)
	}
	sys.Engine.Register(sched)
	ParkCores(sys)
	sched.Start()
	if _, err := sys.Engine.RunUntil(func() bool { return sched.Done() }, maxCycles); err != nil {
		return nil, nil, nil, err
	}
	return sched, sys, compiled, nil
}

// BuildHost builds a system of the given architecture with placeholder boot
// programs, ready to host scheduler-swapped tasks; internal/traffic uses it
// to run arrival scenarios on every policy.
func BuildHost(kind arch.Kind, cores int, opts arch.Options) (*arch.System, error) {
	placeholder := make([]*workload.Workload, cores)
	for c := range placeholder {
		placeholder[c] = &workload.Workload{Name: fmt.Sprintf("boot%d", c), Phases: []*workload.Kernel{{
			Name:  "boot",
			Slots: []workload.LoadSlot{{Stream: 0}},
			Stmts: []workload.Stmt{{Out: 1, E: workload.Mul(workload.Slot(0), workload.Const(1))}},
			Elems: 64, Repeats: 1,
		}}}
	}
	return arch.Build(kind, workload.CoSchedule{Name: "osched", W: placeholder}, opts)
}

// CompileTask compiles w as schedulable task number i on sys: elastic
// EM-SIMD code on Occamy, VL-agnostic fixed-VL code elsewhere, with a data
// segment disjoint from every other task's and from the boot placeholders.
func CompileTask(sys *arch.System, w *workload.Workload, i int, seed uint64) (*compiler.Compiled, error) {
	mode := compiler.ModeElastic
	if sys.Kind != arch.Occamy {
		mode = compiler.ModeFixed
	}
	comp, err := compiler.Compile(w, compiler.Options{
		Mode:     mode,
		BaseAddr: uint64(i+8) << 32, // clear of the placeholders' segments
	})
	if err != nil {
		return nil, err
	}
	comp.InitData(sys.Hier.Mem, seed+uint64(i)*131+7)
	return comp, nil
}

// ParkCores replaces every core's boot program with a parked halt loop; the
// scheduler owns the cores from here on.
func ParkCores(sys *arch.System) {
	for _, core := range sys.Cores {
		core.SetProgram(haltProg)
		core.Restore(cpu.NewState())
	}
}

// haltProg is the parked-core idle program, shared read-only by every core
// a scheduler owns.
var haltProg = func() *isa.Program {
	b := isa.NewBuilder("halt")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	return b.MustFinalize()
}()
