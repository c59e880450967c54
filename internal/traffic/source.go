package traffic

import (
	"math/bits"

	"occamy/internal/digest"
	"occamy/internal/obs"
	"occamy/internal/osched"
	"occamy/internal/sim"
)

// Source replays a pregenerated Trace into the scheduler: it is the
// open-loop arrival injector, the tenant-churn driver and the per-task
// record keeper, in one sim.Component.
//
// The hot path is allocation-free: every per-task record, histogram bin and
// tenant index is preallocated at construction, and Tick only advances
// cursors into the pregenerated event arrays. Source is a sim.Sleeper whose
// wake times are exactly the pregenerated event cycles (plus the pinned
// stop cycle), so the engine skips idle gaps between arrivals without ever
// skipping over one — the determinism contract of DESIGN.md §12.
type Source struct {
	spec  *Spec
	trace *Trace
	sched *osched.Scheduler

	tenantOf []int32   // task id -> tenant
	byTenant [][]int32 // tenant -> task ids, arrival order

	SourceState
}

// SourceState is the Source's checkpointed state, composable with
// osched.SchedState and arch.SystemState for bit-identical forks.
type SourceState struct {
	ai, ci     int // cursors into trace.Arrivals / trace.Churn
	resumedAll bool

	tenantOn []bool

	// Per-task records, indexed by task id (= arrival index).
	admitCycle    []uint64
	completeCycle []uint64
	admitted      []bool
	completed     []bool
	canceled      []bool

	// Live gauges and cumulative counters (telemetry-facing).
	runningNow  int
	nArrived    uint64
	nAdmitted   uint64
	nCompleted  uint64
	nCanceled   uint64
	sojournBins [obs.NumBins]uint64
	admitBins   [obs.NumBins]uint64
}

// NewSource builds the injector over a built scheduler. It registers itself
// as the scheduler's lifecycle hooks.
func NewSource(spec *Spec, tr *Trace, sched *osched.Scheduler) *Source {
	n := len(tr.Arrivals)
	s := &Source{
		spec: spec, trace: tr, sched: sched,
		tenantOf: make([]int32, n),
		byTenant: make([][]int32, spec.Tenants),
		SourceState: SourceState{
			tenantOn:      make([]bool, spec.Tenants),
			admitCycle:    make([]uint64, n),
			completeCycle: make([]uint64, n),
			admitted:      make([]bool, n),
			completed:     make([]bool, n),
			canceled:      make([]bool, n),
		},
	}
	for t := range s.tenantOn {
		s.tenantOn[t] = true
	}
	for i, a := range tr.Arrivals {
		s.tenantOf[i] = a.Tenant
		s.byTenant[a.Tenant] = append(s.byTenant[a.Tenant], int32(i))
	}
	sched.SetHooks(s)
	return s
}

// Name implements sim.Component.
func (s *Source) Name() string { return "traffic" }

// Tick implements sim.Component: applies every due churn transition, then
// every due arrival. Registered before the scheduler, so same-cycle
// admissions are dispatchable the cycle they arrive.
func (s *Source) Tick(now uint64) {
	for s.ci < len(s.trace.Churn) && s.trace.Churn[s.ci].Cycle <= now {
		ev := s.trace.Churn[s.ci]
		s.ci++
		s.applyChurn(ev)
	}
	for s.ai < len(s.trace.Arrivals) && s.trace.Arrivals[s.ai].Cycle <= now {
		id := s.ai
		s.ai++
		s.nArrived++
		s.sched.EnqueueReady(id)
	}
	if s.spec.Drain && !s.resumedAll && now >= s.trace.Horizon {
		// Drain mode: arrivals are over; every churned-out tenant returns
		// to collect, so suspended work finishes and Done() is reachable.
		s.resumedAll = true
		for t := range s.tenantOn {
			if !s.tenantOn[t] {
				s.applyChurn(ChurnEvent{Cycle: now, Tenant: int32(t), On: true})
			}
		}
	}
}

func (s *Source) applyChurn(ev ChurnEvent) {
	t := int(ev.Tenant)
	if s.tenantOn[t] == ev.On {
		return
	}
	s.tenantOn[t] = ev.On
	if ev.On {
		// Re-entry: re-admit everything suspended at exit.
		for _, id := range s.byTenant[t] {
			if s.sched.TaskSuspendedNow(int(id)) {
				s.sched.Resume(int(id))
			}
		}
		return
	}
	// Exit: cancel queued work (reneging), force running work off-core;
	// its context is kept for re-entry.
	for _, id := range s.byTenant[t] {
		i := int(id)
		if i >= s.ai { // not yet arrived
			break
		}
		if s.completed[i] || s.canceled[i] {
			continue
		}
		if s.sched.TaskRunningNow(i) {
			s.sched.Suspend(i)
		} else if !s.sched.TaskSuspendedNow(i) {
			s.sched.Cancel(i)
			s.canceled[i] = true
			s.nCanceled++
		}
	}
}

// NextWake implements sim.Sleeper: the next pregenerated event — arrival,
// churn transition, drain trigger or the pinned non-drain stop — bounds any
// quiescent skip, so no mode ever jumps over an injection cycle.
func (s *Source) NextWake(now uint64) (uint64, bool) {
	wake := uint64(sim.NeverWake)
	if s.ai < len(s.trace.Arrivals) && s.trace.Arrivals[s.ai].Cycle < wake {
		wake = s.trace.Arrivals[s.ai].Cycle
	}
	if s.ci < len(s.trace.Churn) && s.trace.Churn[s.ci].Cycle < wake {
		wake = s.trace.Churn[s.ci].Cycle
	}
	if s.spec.Drain && !s.resumedAll && s.trace.Horizon < wake {
		wake = s.trace.Horizon
	}
	if !s.spec.Drain && now < s.spec.StopCycle() && s.spec.StopCycle() < wake {
		wake = s.spec.StopCycle()
	}
	if wake <= now {
		return 0, false
	}
	return wake, true
}

// SkipTicks implements sim.Sleeper; all Source state is keyed on absolute
// cycles, so skipped windows need no catch-up.
func (s *Source) SkipTicks(from, n uint64) {}

// TaskRunning implements osched.Hooks.
func (s *Source) TaskRunning(id int, now uint64, first bool) {
	s.runningNow++
	if first {
		s.admitCycle[id] = now
		s.admitted[id] = true
		s.nAdmitted++
		s.admitBins[bits.Len64(now-s.trace.Arrivals[id].Cycle)]++
	}
}

// TaskPreempted implements osched.Hooks.
func (s *Source) TaskPreempted(id int, now uint64) { s.runningNow-- }

// TaskSuspended implements osched.Hooks: if the tenant already returned
// while the task was draining, re-admit immediately.
func (s *Source) TaskSuspended(id int, now uint64) {
	s.runningNow--
	if s.tenantOn[s.tenantOf[id]] && !s.canceled[id] {
		s.sched.Resume(id)
	}
}

// TaskCompleted implements osched.Hooks.
func (s *Source) TaskCompleted(id int, now uint64) {
	s.runningNow--
	s.completeCycle[id] = now
	s.completed[id] = true
	s.nCompleted++
	s.sojournBins[bits.Len64(now-s.trace.Arrivals[id].Cycle)]++
}

// Telemetry-facing gauges (telemetry.TrafficSource).

// Queued returns the ready-ring occupancy.
func (s *Source) Queued() int { return s.sched.QueueLen() }

// Running returns tasks currently on a core.
func (s *Source) Running() int { return s.runningNow }

// Arrived returns cumulative arrivals injected.
func (s *Source) Arrived() uint64 { return s.nArrived }

// Admitted returns cumulative first dispatches.
func (s *Source) Admitted() uint64 { return s.nAdmitted }

// Completed returns cumulative completions.
func (s *Source) Completed() uint64 { return s.nCompleted }

// Canceled returns cumulative churn cancellations.
func (s *Source) Canceled() uint64 { return s.nCanceled }

// CopySojournBins copies the cumulative arrival→completion latency bins.
func (s *Source) CopySojournBins(dst *[obs.NumBins]uint64) { *dst = s.sojournBins }

// CopyAdmitBins copies the cumulative arrival→first-dispatch wait bins.
func (s *Source) CopyAdmitBins(dst *[obs.NumBins]uint64) { *dst = s.admitBins }

// Digest folds every observable outcome — the pregenerated trace, each
// task's admit/complete cycles and flags, and the cumulative counters —
// into one FNV-64a value. Two runs of the same scenario are equivalent iff
// their digests match; the determinism suite compares it across skip-ahead,
// parallelism and checkpoint forks.
func (s *Source) Digest() uint64 {
	d := digest.NewFNV()
	for _, a := range s.trace.Arrivals {
		d.U64(a.Cycle)
		d.I64(int64(a.Tenant), int64(a.Kernel), int64(a.Elems), int64(a.Repeats))
	}
	for _, c := range s.trace.Churn {
		d.U64(c.Cycle)
		d.I64(int64(c.Tenant))
		d.Bool(c.On)
	}
	for i := range s.admitCycle {
		d.U64(s.admitCycle[i], s.completeCycle[i])
		d.Bool(s.admitted[i])
		d.Bool(s.completed[i])
		d.Bool(s.canceled[i])
	}
	d.U64(s.nArrived, s.nAdmitted, s.nCompleted, s.nCanceled)
	d.I64(int64(s.ai), int64(s.ci))
	d.U64(s.sched.Switches)
	return d.Sum()
}

// Snapshot captures the Source state (deep copy).
func (s *Source) Snapshot() SourceState { return digest.Clone(&s.SourceState) }

// Restore reinstalls a state captured by Snapshot on the same scenario.
func (s *Source) Restore(st SourceState) { digest.Copy(&s.SourceState, &st) }
