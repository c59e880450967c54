package coproc

import "fmt"

// This file implements parking, an execution strategy beside skip-ahead:
// Tick's walk stops ticking an active row whose stall the sleep mirror
// (coreSleep) declares quiescent, and replays the stalled tick's per-cycle
// effects instead, until the earliest cycle the row could change on its own.
// Where skip-ahead elides a cycle only when the whole machine is quiescent,
// parking elides one row's tick while the rest of the machine runs; a parked
// row is bit-identical to one ticked through its stall.
//
// The walk probes a row only after a tick that made no progress (nothing
// issued, renamed or retired from the head), so a row that issues every
// cycle pays nothing; nor after an MSHR retry, or when one of the row's
// in-flight operations completes next cycle. A park lasts until the earlier
// of the mirror's wake and the row's next in-flight release. Until then
// nothing inside the row can change, and every mutation from outside it
// ends the park: Transmit, the fault setters, a forced VL or a migration
// landing at the core's strip boundary, RestoreVecState and
// RestoreCheckpoint. While parked, the row raises its latched signals and
// rename-stall flag each cycle, the accounting loop settles it as usual,
// and NextWake and SkipTicks read the latch instead of re-scanning it.
//
// Rows whose stall depends on other rows keep ticking:
//   - an MSHR retry: its accesses interleave with the other rows' on the
//     shared cache port;
//   - an EM-SIMD instruction at the head: the EM-SIMD data path's per-cycle
//     budget is shared, so whether its drain wait or monitor stall is
//     charged depends on the rows ahead of it in the rotation;
//   - every row of a SharedIssue or SharedVRF cluster (FTS): the issue
//     budgets and the register free list are shared.

// SetParking turns parking on or off; it is off until the system builder
// turns it on, and -legacy-tick keeps it off. Shared-issue and shared-VRF
// clusters never park. Every park ends either way.
func (cp *Coproc) SetParking(on bool) {
	cp.parking = on && !cp.cfg.SharedIssue && !cp.cfg.SharedVRF
	cp.unparkAll()
}

// ParkedTicks returns how many row ticks parking replaced with a replay.
// Host-side, like the engine's skipped cycles: it is outside Stats and every
// checkpoint, so parked and ticked runs stay bit-identical.
func (cp *Coproc) ParkedTicks() uint64 { return cp.parkedTicks }

// unpark ends row c's park; its next tick is real.
func (cp *Coproc) unpark(c int) { cp.cores[c].parkUntil = 0 }

// unparkAll ends every park; every row's next tick is real.
func (cp *Coproc) unparkAll() {
	for _, st := range cp.cores {
		st.parkUntil, st.idle = 0, false
	}
}

// tickRow runs active row c's share of Tick: the real tickCore, or, while the
// row is parked, its latched effects. It also wakes a core parked on this
// row's full pool once a slot frees.
func (cp *Coproc) tickRow(c int, now uint64, budget *issueBudget) {
	st := cp.cores[c]
	if now < st.parkUntil || st.idle && cp.park(c, now) {
		cp.parkedTicks++
		fx := &cp.sleepFxs[c]
		if fx.sig != 0 {
			cp.probe.Signal(c, fx.sig)
		}
		cp.renameStallNow[c] = fx.renameStall
		return
	}
	full := st.tail-st.head >= queueCap
	progress, head, renamed, retries := cp.progress, st.head, st.renamed, st.mshrRetries
	cp.tickCore(c, now, budget)
	// A tick that retried against full MSHRs does not count as idle: the
	// mirror would decline the retry. Nor is a probe worth it when an
	// in-flight release lands next cycle, which likely ends the stall.
	st.idle = cp.parking && cp.progress == progress && st.head == head && st.renamed == renamed &&
		st.mshrRetries == retries && st.inflight.next(now) != now+1
	if full && st.tail-st.head < queueCap && cp.slotFreed != nil {
		cp.slotFreed(c)
	}
}

// park probes row c's sleep mirror at now and parks the row when it is
// quiescent and its stall is its own, latching its effects in the sleep memo.
// A row with an EM-SIMD instruction at the head is not probed at all.
func (cp *Coproc) park(c int, now uint64) bool {
	st := cp.cores[c]
	if st.at(st.head).kind == kindEMSIMD {
		return false // the EM-SIMD budget is shared
	}
	fx, wake, ok := cp.coreSleep(c, now)
	if !ok || fx.mshrRetry {
		return false
	}
	st.parkUntil = cp.parkWake(st, now, wake)
	cp.sleepFxs[c] = fx
	return true
}

// parkWake bounds a quiescent row's park: the earlier of the mirror's wake
// and the row's next in-flight release, which the mirror leaves to NextWake.
// The lane manager's busy window, which NextWake adds too, holds only an
// MSR <OI> at the head, and such a row never parks.
func (cp *Coproc) parkWake(st *coreState, now, wake uint64) uint64 {
	return min(wake, st.inflight.next(now))
}

// CheckParked verifies every parked row at the cycle boundary now, for
// tests: the sleep mirror must still find the row quiescent with exactly its
// latched effects, the stall must be the row's own (no MSHR retry, no
// EM-SIMD instruction at the head), and no wake may fall before the park's
// end. A wake that an outside mutation failed to deliver shows up here at
// the first cycle boundary after it.
func (cp *Coproc) CheckParked(now uint64) error {
	for c, st := range cp.cores {
		if now >= st.parkUntil {
			continue
		}
		fx, wake, ok := cp.coreSleep(c, now)
		wake = cp.parkWake(st, now, wake)
		switch latched := cp.sleepFxs[c]; {
		case !cp.parking || !cp.active.has(c):
			return fmt.Errorf("%s core %d: parked until %d, but parking is %v and the row active %v", cp.name, c, st.parkUntil, cp.parking, cp.active.has(c))
		case !ok:
			return fmt.Errorf("%s core %d: parked until %d, but live at %d", cp.name, c, st.parkUntil, now)
		case fx != latched:
			return fmt.Errorf("%s core %d: parked until %d with effects %+v, the mirror now says %+v", cp.name, c, st.parkUntil, latched, fx)
		case fx.mshrRetry || st.at(st.head).kind == kindEMSIMD:
			return fmt.Errorf("%s core %d: parked on a stall shared with other rows: %+v, head %s", cp.name, c, fx, st.at(st.head).Op)
		case wake < st.parkUntil:
			return fmt.Errorf("%s core %d: parked until %d, but wakes at %d", cp.name, c, st.parkUntil, wake)
		}
	}
	return nil
}
