package sim

import (
	"fmt"
	"strings"
)

// ProgressReporter is the opt-in capability through which a Component exposes
// a monotone progress counter to the engine's forward-progress watchdog: any
// counter that moves when the component does real work (instructions retired,
// operations issued, tasks switched). The watchdog never interprets the
// value — only whether it changed.
type ProgressReporter interface {
	Progress() uint64
}

// StallError reports a forward-progress stall: no registered
// ProgressReporter's counter moved for a full watchdog threshold. In this
// codebase that always indicates a deadlock or livelock — a hardware model
// waiting on an event that can no longer happen, or a generated program
// spinning on a register that will never change.
type StallError struct {
	// Cycle is the cycle at which the stall was detected.
	Cycle uint64
	// Window is the length of the progress-free window, in cycles.
	Window uint64
	// Stalled names the components whose progress counters did not move
	// over the window (a quiesced-but-healthy component appears here too;
	// the diagnostic dump distinguishes them).
	Stalled []string
}

func (e *StallError) Error() string {
	return fmt.Sprintf("sim: no forward progress for %d cycles (detected at cycle %d; stalled: %s)",
		e.Window, e.Cycle, strings.Join(e.Stalled, ", "))
}

// BudgetError reports cycle-budget exhaustion from RunUntil. The message is
// byte-identical to the historical untyped error so log scrapers keep
// working; the type exists so callers can attach a diagnostic dump.
type BudgetError struct {
	Budget uint64
	Start  uint64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: cycle budget of %d exhausted (started at %d)", e.Budget, e.Start)
}

// SetWatchdog arms the forward-progress watchdog: if no registered
// ProgressReporter's counter moves for threshold cycles, RunUntil returns a
// *StallError naming the stalled components instead of ticking on until the
// cycle budget runs out. Zero disarms. The watchdog is skip-ahead
// compatible — skip jumps clamp to the sampling schedule (see RunUntil), so
// a skipping run examines the same progress counters at the same cycles a
// legacy run would and detects a genuine dead stall at the identical cycle;
// quiescent windows with a declared finite wake are healthy sleeps and never
// fire, however long.
func (e *Engine) SetWatchdog(threshold uint64) {
	e.wdThreshold = threshold
	e.wd = nil
	e.watch = watchState{}
	e.wdQuietUntil = 0
}

// Watchdog returns the armed stall threshold (0 = disarmed).
func (e *Engine) Watchdog() uint64 { return e.wdThreshold }

// watchdog is the stall detector's wiring. Scanning every reporter each
// cycle would double the cost of idle ticks, so it samples at threshold/8
// intervals: a stall is detected within ~9/8 of the threshold, and the
// scans are read-only so sampling cannot perturb determinism.
type watchdog struct {
	threshold uint64
	interval  uint64
	reporters []ProgressReporter
	names     []string
}

// watchState is the detector's samples, part of EngineState: each
// reporter's last progress value and the cycle it last moved, and the next
// sample cycle. last is nil while no detector exists.
type watchState struct {
	nextCheck  uint64
	last       []uint64
	lastChange []uint64
}

// newWatchdog wires the engine's reporters. Nil when no component reports
// progress — with nothing to watch, firing would be noise.
func (e *Engine) newWatchdog() *watchdog {
	w := &watchdog{threshold: e.wdThreshold}
	for i, c := range e.components {
		if r, ok := c.(ProgressReporter); ok {
			w.reporters = append(w.reporters, r)
			w.names = append(w.names, e.components[i].Name())
		}
	}
	if len(w.reporters) == 0 {
		return nil
	}
	w.interval = w.threshold / 8
	if w.interval == 0 {
		w.interval = 1
	}
	return w
}

// armWatchdog creates the detector and takes its first samples at cycle
// now.
func (e *Engine) armWatchdog(now uint64) {
	e.wd = e.newWatchdog()
	if e.wd == nil {
		return
	}
	e.watch = watchState{nextCheck: now + e.wd.interval}
	for _, r := range e.wd.reporters {
		e.watch.last = append(e.watch.last, r.Progress())
		e.watch.lastChange = append(e.watch.lastChange, now)
	}
}

// checkWatchdog samples the reporters at cycle now and returns a
// *StallError if none has moved for the full threshold.
func (e *Engine) checkWatchdog(now uint64) *StallError {
	w, st := e.wd, &e.watch
	st.nextCheck = now + w.interval
	newest := uint64(0)
	for i, r := range w.reporters {
		if v := r.Progress(); v != st.last[i] {
			st.last[i] = v
			st.lastChange[i] = now
		}
		if st.lastChange[i] > newest {
			newest = st.lastChange[i]
		}
	}
	if now-newest < w.threshold {
		return nil
	}
	err := &StallError{Cycle: now, Window: now - newest}
	for i, name := range w.names {
		if now-st.lastChange[i] >= w.threshold {
			err.Stalled = append(err.Stalled, name)
		}
	}
	return err
}
