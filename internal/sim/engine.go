// Package sim provides the deterministic cycle-level simulation kernel used by
// every hardware model in this repository: a clock that ticks a fixed,
// registration-ordered list of components, a counter registry for statistics,
// and a timeline sampler for the per-1000-cycle plots of the paper.
//
// Determinism is a design requirement (DESIGN.md §3): there is no wall-clock
// input, no map iteration on the tick path, and component order is the
// registration order, so a given configuration and seed always produce the
// same cycle counts.
//
// The engine is a hybrid cycle/event kernel: components tick every cycle by
// default, but a component that also implements Sleeper can declare windows
// of quiescence, and when every registered component is quiescent the clock
// fast-forwards to the earliest declared wake cycle instead of ticking
// through the window (DESIGN.md §3's skip-ahead contract). Skipping is an
// execution strategy, not a model change: SkipTicks replays the elided
// cycles' accounting exactly, so a run with skipping produces bit-identical
// cycle counts, statistics and functional results to the legacy path.
package sim

import (
	"math"

	"occamy/internal/digest"
)

// Component is a piece of hardware that does work once per cycle.
//
// Tick is called with the current cycle number. Components are ticked in
// registration order; a component that needs a specific phase relationship
// with another (e.g. consume-before-produce) must be registered accordingly.
type Component interface {
	// Name identifies the component in error messages and traces.
	Name() string
	// Tick advances the component by one cycle.
	Tick(cycle uint64)
}

// NeverWake is the wake cycle of a quiescent component with no self-scheduled
// event: it sleeps until some other component's wake bounds the jump (or the
// cycle budget does).
const NeverWake = math.MaxUint64

// Sleeper is the opt-in capability through which a Component declares
// quiescent windows to the skip-ahead engine.
//
// NextWake(now) returns (wake, true) when every Tick the component would
// receive on [now, wake) is guaranteed to (a) change no simulation state
// other than a fixed, cycle-invariant set of per-cycle accounting effects
// (stall counters, observability signals, timeline samples), and (b) leave
// every time-driven predicate the component exposes to the rest of the
// system unchanged until wake. Returning (_, false) means the next Tick may
// make progress and must run for real. A wake of NeverWake means "until an
// upstream event"; the engine then relies on some other component (or the
// cycle budget) to bound the jump.
//
// SkipTicks(from, n) bulk-applies the accounting of the n elided ticks at
// cycles [from, from+n): exactly what n real Ticks would have done in a
// quiescent window, so that a skipping run stays bit-identical to a ticking
// one. The engine only calls it after NextWake(from) reported quiescence,
// with from+n never past the declared wake.
type Sleeper interface {
	NextWake(now uint64) (wake uint64, quiescent bool)
	SkipTicks(from, n uint64)
}

// Engine drives a set of Components with a shared clock.
type Engine struct {
	components []Component
	// sleepers is parallel to components: the Sleeper view of each
	// component, nil when it does not implement the capability (which
	// disables skipping for the whole engine — one opaque component can
	// make progress at any cycle).
	sleepers []Sleeper
	EngineState
	stats *Stats

	skip bool

	// interrupt is the cooperative cancellation signal (see cancel.go);
	// nil when disarmed. pollCtr spaces the channel polls — host-side
	// bookkeeping only, never snapshotted.
	interrupt <-chan struct{}
	pollCtr   uint64

	// wdThreshold arms the forward-progress watchdog (see watchdog.go);
	// 0 keeps it disarmed. wd is the engine-owned detector's wiring,
	// created lazily on the first armed RunUntil and persistent across
	// calls (its samples live in EngineState.watch), so stall detection
	// depends only on model history — a run split into several RunUntil
	// segments (e.g. around a checkpoint) detects a stall at the same cycle
	// an unsplit run does.
	wdThreshold uint64
	wd          *watchdog
	// wdQuietUntil suppresses watchdog firing while the clock is inside a
	// quiescent window with a declared finite wake: the system is healthily
	// asleep until a known event, which is progress in waiting, not a stall.
	// A window with no self-scheduled event (NeverWake) clears it — nothing
	// can ever happen again, and the watchdog must fire exactly where the
	// legacy path would. Execution-strategy state, never snapshotted: any
	// jump re-establishes it from the same declared wake.
	wdQuietUntil uint64
}

// EngineState is the engine's checkpointed state: the clock, the
// skip-ahead bookkeeping and the watchdog's samples. The component list,
// the counter registry (checkpointed as its own StatsState) and the
// watchdog threshold are not in it.
type EngineState struct {
	cycle        uint64
	skips        uint64
	skippedTicks uint64

	// Adaptive probe backoff. Probing for quiescence costs one NextWake
	// scan per component; during live stretches (every issue burst) that
	// scan buys nothing, and on short windows it can cost as much as the
	// tick it would elide. After a failed probe the engine waits
	// 1+probeBackoff cycles before probing again, doubling the backoff up
	// to maxProbeBackoff and resetting it on every successful skip. This
	// is purely an execution-cost knob: probes are side-effect-free, and a
	// cycle that goes unprobed is simply ticked for real, which is always
	// bit-identical (quiescent or not).
	probeAt      uint64
	probeBackoff uint64

	watch watchState
}

// maxProbeBackoff caps the probe interval during live stretches. The cap
// trades skip coverage for probe cost: a window shorter than the current
// interval can slip past unprobed (losing a small skip), while every probe
// during a live stretch is pure overhead. The long quiescent windows that
// dominate skip-ahead's payoff (DRAM-latency stalls of tens to hundreds of
// cycles) are far wider than this cap, so they are always caught.
const maxProbeBackoff = 31

// NewEngine returns an empty engine at cycle 0 with skip-ahead enabled.
func NewEngine() *Engine {
	return &Engine{stats: NewStats(), skip: true}
}

// Register appends c to the tick order. Registration order is tick order.
func (e *Engine) Register(c Component) {
	e.components = append(e.components, c)
	s, _ := c.(Sleeper)
	e.sleepers = append(e.sleepers, s)
}

// SetSkipAhead enables or disables clock fast-forwarding. Disabling forces
// the legacy every-cycle path; results are bit-identical either way (the
// differential tests in internal/arch enforce this), so the switch exists
// for A/B validation and for runs that want per-cycle trace fidelity.
func (e *Engine) SetSkipAhead(on bool) { e.skip = on }

// SkipAhead reports whether fast-forwarding is enabled.
func (e *Engine) SkipAhead() bool { return e.skip }

// Skips returns how many fast-forward jumps the engine has taken.
func (e *Engine) Skips() uint64 { return e.skips }

// SkippedCycles returns how many cycles were fast-forwarded rather than
// ticked. These counters live outside Stats so that the counter registry
// stays bit-identical between skipping and legacy runs.
func (e *Engine) SkippedCycles() uint64 { return e.skippedTicks }

// Cycle returns the number of cycles executed so far.
func (e *Engine) Cycle() uint64 { return e.cycle }

// Stats returns the engine-wide counter registry.
func (e *Engine) Stats() *Stats { return e.stats }

// Step executes exactly one cycle.
func (e *Engine) Step() {
	for _, c := range e.components {
		c.Tick(e.cycle)
	}
	e.cycle++
}

// nextWake returns the earliest declared wake cycle if every registered
// component is quiescent. An engine with no components never skips (time
// passing is then the only observable, and callers poll it with done()).
func (e *Engine) nextWake() (uint64, bool) {
	if len(e.components) == 0 {
		return 0, false
	}
	wake := uint64(NeverWake)
	for _, s := range e.sleepers {
		if s == nil {
			return 0, false
		}
		w, quiescent := s.NextWake(e.cycle)
		if !quiescent {
			return 0, false
		}
		if w < wake {
			wake = w
		}
	}
	return wake, true
}

// skipTo fast-forwards the clock to target, bulk-applying each component's
// elided per-cycle accounting in registration order (the same order real
// ticks would have run, which matters for the observability probe: it must
// see the cycle's signals before charging them).
func (e *Engine) skipTo(target uint64) {
	n := target - e.cycle
	for _, s := range e.sleepers {
		s.SkipTicks(e.cycle, n)
	}
	e.cycle = target
	e.skips++
	e.skippedTicks += n
}

// Cycle returns the cycle the snapshot was taken at.
func (st EngineState) Cycle() uint64 { return st.cycle }

// Restore rewinds the engine to a checkpointed EngineState, re-wiring the
// watchdog's reporters when the state has samples and this engine has none
// yet.
func (e *Engine) Restore(st EngineState) {
	digest.Copy(&e.EngineState, &st)
	e.wdQuietUntil = 0
	if e.watch.last == nil {
		e.wd = nil
	} else if e.wd == nil {
		e.wd = e.newWatchdog()
	}
}

// RunUntil steps the engine until done() reports true or maxCycles elapse.
// It returns the number of cycles executed and an error if the cycle budget
// was exhausted before done() held, which in this codebase always indicates a
// deadlock or livelock bug in a hardware model or generated program.
//
// With skip-ahead enabled, iterations where every component is quiescent
// fast-forward the clock to the earliest wake cycle instead of ticking. The
// jump is clamped to the cycle budget so an all-quiescent-forever system
// still reports budget exhaustion at exactly the cycle the legacy path
// would. A component that (erroneously) declares a wake cycle in the past
// degrades to normal ticking rather than stalling the clock. A run split into
// several RunUntil segments (budgets, watchdog samples, RunTo around a
// checkpoint) may stop inside a skip window; the next segment replays the
// rest of it chunk-linearly, so split and unsplit runs are bit-identical
// (only the engine-local skip/jump tallies, deliberately outside Stats, can
// differ).
//
// The forward-progress watchdog samples on its own fixed grid: jumps clamp
// to the next sample cycle instead of leaping it, so a skipping run examines
// the same progress counters at the same cycles a legacy run would and its
// detector state stays bit-identical. A sample taken inside a quiescent
// window with a declared finite wake never fires (the sleep is healthy by
// construction — see wdQuietUntil); once no component has a self-scheduled
// event left, nothing can ever make progress again, and the watchdog fires
// at exactly the cycle the legacy path detects the stall.
func (e *Engine) RunUntil(done func() bool, maxCycles uint64) (uint64, error) {
	start := e.cycle
	if e.wdThreshold > 0 && e.wd == nil {
		e.armWatchdog(start)
	}
	wd := e.wd
	for !done() {
		if e.cycle-start >= maxCycles {
			return e.cycle - start, &BudgetError{Budget: maxCycles, Start: start}
		}
		if e.interrupt != nil && e.pollInterrupt() {
			return e.cycle - start, &CanceledError{Cycle: e.cycle}
		}
		if wd != nil && e.cycle >= e.watch.nextCheck {
			if serr := e.checkWatchdog(e.cycle); serr != nil && e.cycle >= e.wdQuietUntil {
				return e.cycle - start, serr
			}
		}
		if e.skip && e.probeAt <= e.cycle {
			wake, ok := e.nextWake()
			if ok && wake > e.cycle {
				if wake == NeverWake {
					e.wdQuietUntil = 0
				} else {
					e.wdQuietUntil = wake
				}
				// Every clamp below is strictly above e.cycle: the budget
				// check guaranteed start+maxCycles > cycle, and a just-run
				// check set nextCheck past now — so the jump always moves
				// the clock.
				if limit := start + maxCycles; wake > limit {
					wake = limit
				}
				if wd != nil && wake > e.watch.nextCheck {
					wake = e.watch.nextCheck
				}
				e.skipTo(wake)
				e.probeBackoff = 0
				e.probeAt = e.cycle
				continue
			}
			// Live (or a wake declared in the past): back off before the
			// next probe so dense live stretches don't pay a full
			// quiescence scan every cycle.
			e.probeBackoff = 2*e.probeBackoff + 1
			if e.probeBackoff > maxProbeBackoff {
				e.probeBackoff = maxProbeBackoff
			}
			e.probeAt = e.cycle + 1 + e.probeBackoff
		}
		e.Step()
	}
	return e.cycle - start, nil
}
