package fault

import (
	"sort"

	"occamy/internal/digest"
)

// Handler is implemented by the architecture layer: it applies and reverts
// fault effects on the hardware models, and advances any deferred actions
// (drain-gated reconfigurations) once per cycle.
type Handler interface {
	// Apply injects the fault at cycle now.
	Apply(f Fault, now uint64)
	// Revert ends a transient fault at cycle now.
	Revert(f Fault, now uint64)
	// Poll runs once per cycle after any injections, advancing deferred
	// recovery actions (e.g. a forced VL shrink waiting for a drained
	// pipeline). It must be cheap when nothing is pending.
	Poll(now uint64)
}

// SleepHandler is the optional capability through which a Handler joins the
// skip-ahead contract: PollQuiescent reports that every Poll call is a
// guaranteed no-op until the handler itself changes that (which only happens
// inside Apply/Revert/Poll — all of which run on ticked cycles). A handler
// without the capability pins the injector permanently live, which forces
// the engine onto the legacy every-cycle path.
type SleepHandler interface {
	PollQuiescent() bool
}

// event is one scheduled transition: a fault being applied or reverted.
type event struct {
	cycle  uint64
	revert bool
	fault  Fault
}

// Injector is the sim.Component that fires a fault schedule. It resolves
// seed-derived victims once at construction, expands each transient fault
// into an apply and a revert event, and walks the sorted schedule as the
// clock advances. It is also a sim.Sleeper: between scheduled events, and
// while the handler has no recovery in flight, every Tick is a pure no-op,
// so a faulted run skips ahead exactly like a fault-free one — the injector
// wakes the engine at each event cycle to fire it for real.
type Injector struct {
	handler Handler
	events  []event
	InjectorState
}

// InjectorState is the injector's checkpointed state: the schedule cursors.
// The event list itself is configuration (fully resolved at construction)
// and is not in it — a restore rewinds the cursors on the same schedule.
type InjectorState struct {
	next    int
	applied int
}

// NewInjector builds an injector for the given schedule. Faults with
// Core == AnyCore (where a core is meaningful) are pinned to a concrete
// victim derived from seed, so the schedule is fully resolved and
// deterministic before the clock starts.
func NewInjector(faults []Fault, cores int, seed uint64, h Handler) *Injector {
	inj := &Injector{handler: h}
	rng := seed
	for _, f := range faults {
		if f.Core == AnyCore && (f.Kind == RegBank || f.Kind == XmitLink) && cores > 0 {
			rng = splitmix64(rng)
			f.Core = int(rng % uint64(cores))
		}
		inj.events = append(inj.events, event{cycle: f.At, fault: f})
		if f.For > 0 {
			inj.events = append(inj.events, event{cycle: f.At + f.For, revert: true, fault: f})
		}
	}
	// Stable sort keeps spec order among same-cycle events, and applies
	// before reverts at a shared cycle boundary.
	sort.SliceStable(inj.events, func(i, j int) bool {
		if inj.events[i].cycle != inj.events[j].cycle {
			return inj.events[i].cycle < inj.events[j].cycle
		}
		return !inj.events[i].revert && inj.events[j].revert
	})
	return inj
}

// Schedule returns the resolved fault schedule (victims pinned, transients
// expanded), in firing order.
func (inj *Injector) Schedule() []Fault {
	var fs []Fault
	for _, ev := range inj.events {
		if !ev.revert {
			fs = append(fs, ev.fault)
		}
	}
	return fs
}

// Applied reports how many fault events (applies and reverts) have fired.
func (inj *Injector) Applied() int { return inj.applied }

// Name implements sim.Component.
func (inj *Injector) Name() string { return "fault-injector" }

// Tick implements sim.Component: fire every event scheduled for this cycle,
// then let the handler advance deferred actions.
func (inj *Injector) Tick(now uint64) {
	for inj.next < len(inj.events) && inj.events[inj.next].cycle <= now {
		ev := inj.events[inj.next]
		inj.next++
		inj.applied++
		if ev.revert {
			inj.handler.Revert(ev.fault, now)
		} else {
			inj.handler.Apply(ev.fault, now)
		}
	}
	inj.handler.Poll(now)
}

// NextWake implements sim.Sleeper. The injector is quiescent when no event
// is due and the handler's per-cycle Poll is a declared no-op; its wake is
// the next scheduled event (NeverWake once the schedule is exhausted — the
// injector alone never needs the clock again).
func (inj *Injector) NextWake(now uint64) (uint64, bool) {
	sh, ok := inj.handler.(SleepHandler)
	if !ok || !sh.PollQuiescent() {
		return 0, false
	}
	if inj.next < len(inj.events) {
		if ev := inj.events[inj.next].cycle; ev > now {
			return ev, true
		}
		return 0, false // an event is due: the next Tick fires it
	}
	return NeverWakeCycle, true
}

// NeverWakeCycle mirrors sim.NeverWake without importing sim (which would
// cycle: sim is dependency-free by design).
const NeverWakeCycle = ^uint64(0)

// SkipTicks implements sim.Sleeper. Elided ticks would only have run a
// no-op Poll: there is no accounting to replay.
func (inj *Injector) SkipTicks(from, n uint64) {}

// State returns the schedule cursors (zero value on a nil injector, so
// fault-free architectures checkpoint uniformly).
func (inj *Injector) State() InjectorState {
	if inj == nil {
		return InjectorState{}
	}
	return inj.InjectorState
}

// Restore rewinds the cursors. Events at or before the restored cycle that
// had already fired will not re-fire unless the snapshot predates them.
func (inj *Injector) Restore(st InjectorState) {
	if inj != nil {
		digest.Copy(&inj.InjectorState, &st)
	}
}

// Reschedule replaces the injector's fault schedule in place and rewinds the
// cursors, exactly as if the injector had been built with the new schedule.
// This is the fork point for checkpointed sweeps: warm one run up with an
// empty schedule, checkpoint, then per sweep point restore the system and
// swap in that point's faults. Events scheduled at or before the current
// cycle fire on the next Tick (late application), matching what a fresh
// build restarted at cycle zero would have already applied — so schedules
// should place their faults after the checkpoint cycle.
func (inj *Injector) Reschedule(faults []Fault, cores int, seed uint64) {
	if inj == nil {
		return
	}
	fresh := NewInjector(faults, cores, seed, inj.handler)
	inj.events = fresh.events
	inj.next = 0
	inj.applied = 0
}

// splitmix64 is the standard 64-bit mixing step; deterministic victim
// selection needs nothing stronger.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
