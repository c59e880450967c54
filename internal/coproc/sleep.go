package coproc

import (
	"fmt"

	"occamy/internal/isa"
	"occamy/internal/mem"
	"occamy/internal/obs"
	"occamy/internal/sim"
)

// This file implements sim.Sleeper for the co-processor: the side-effect-free
// mirror of Tick that classifies the current cycle as quiescent (every tick
// until the declared wake would repeat exactly the same stall accounting and
// change nothing else) or live (the next tick may issue, execute, rename or
// advance the pool head, and must run for real).
//
// The wake contract leans on the fact that every time-driven predicate in
// this package — depReady, holdTracker.Count, canRename, Quiescent,
// MemInFlight — is a threshold test against completion timestamps that were
// fixed when the corresponding operation issued. Between now and the
// earliest pending completion nothing can change on its own, so declaring
// wake = min(inflight releases, emsimdBusyUntil, MSHR releases) re-runs the
// real tick at exactly every event boundary. The lhq, stq and pool trackers
// are populated with the same completion cycles as inflight, so inflight
// alone covers them.
//
// Memory retries are skippable when they repeat identically: a retry that
// rejects on its first missing line because the MSHRs are full performs only
// cycle-invariant work (hits on the leading resident lines, a reject count)
// until an outstanding miss retires — see mem.Cache.ProbeRetry — and
// SkipTicks bulk-replays exactly those effects via ReplayRetries. When
// several rows storm the same port at once their bandwidth-meter updates
// interleave in tick order — cycle by cycle, each cluster in registration
// order, each cluster's rows in its priority rotation — so the bulk replay
// switches to a cycle-major loop that visits the storming rows in exactly
// that order (see stormGroup); within one cycle each row's retry is still
// the same cycle-invariant line walk.

// minGateSleep is the shortest fault-gate window worth eliding: below it the
// quiescence probe plus accounting replay cost more than the handful of
// cheap gated ticks they replace, while the heavily-throttled gates (a
// Private victim on one survivor, FTS past half its units dead) stretch a
// run 10-20x with blocked cycles and win big. A dead gate's window
// (sim.NeverWake) always clears the bar.
const minGateSleep = 8

// probeOf extracts a port's optional skip-ahead capability.
func probeOf(p mem.SharedPort) mem.RetryProber {
	probe, _ := p.(mem.RetryProber)
	return probe
}

// sleepFx is the constant per-cycle accounting a quiescent core repeats
// every elided cycle: the observability signals its scan would raise, plus
// the stall counters that increment per cycle.
type sleepFx struct {
	sig         obs.Sig
	drainWait   bool // MSR <VL> at the head, drain window open
	renameStall bool // renamer blocked on physical registers
	mshrRetry   bool // a memory op retries against a rejecting cache
	// The retrying access, for SkipTicks' bulk replay.
	retryAddr  uint64
	retrySize  int
	retryWrite bool
}

// coreSleep mirrors one core's slice of Tick (head advance, renameTick, the
// issue scan) without side effects. It returns ok=false when the real tick
// would change state; otherwise fx describes the cycle's repeated effects
// and wake bounds the window (NeverWake when only inflight completions or
// the EM-SIMD manager can wake this core).
func (cp *Coproc) coreSleep(c int, now uint64) (fx sleepFx, wake uint64, ok bool) {
	wake = uint64(sim.NeverWake)
	st := cp.cores[c]
	if st.head < st.tail && st.at(st.head).issued {
		return fx, 0, false // head would advance
	}
	if st.renamed < st.tail && st.renamed-st.head < window {
		x := st.at(st.renamed)
		switch {
		case x.notBefore > now:
			// Still crossing the CPU→coproc fabric: rename repeats the same
			// arrival stall until the stamped cycle.
			fx.sig |= obs.SigExeBUWait
			if x.notBefore < wake {
				wake = x.notBefore
			}
		case x.Op.IsEMSIMD() || !hasZDst(x.Op) || cp.canRename(c, now):
			return fx, 0, false // renamer would advance
		default:
			fx.sig |= obs.SigRenameStall
			fx.renameStall = true
		}
	}
	// Fault-injected issue gates close the whole issue stage on off cycles:
	// the real tick signals the backlog wait and returns before its scan
	// (see tickCore). Every gated cycle repeats exactly that accounting, so
	// the window is quiescent until the earliest cycle a gate could reopen —
	// a dead-gated victim sleeps forever, which is what converts a DNF sweep
	// point from 25k real ticks into a handful of watchdog-grid jumps.
	if cp.flt != nil && !cp.flt.issueAllowed(c, now) {
		w := cp.flt.gateWake(c, now)
		if w-now < minGateSleep {
			// Periodic gates reopen within a few cycles (gatePeriod is
			// ceil(2w/(w-f))): a window that short costs more in probe and
			// replay machinery than the ticks it elides. Ticking for real is
			// always sound, so thrash-prone windows just decline to sleep.
			return fx, 0, false
		}
		if st.head < st.tail {
			fx.sig |= obs.SigExeBUWait
		}
		if w < wake {
			wake = w
		}
		return fx, wake, true
	}
	if cp.gated(c) {
		// A periodic gate open now is closed next cycle, and a gated tick
		// returns before its scan: the scan's effects hold for this cycle
		// only.
		wake = now + 1
	}
	if st.head == st.tail {
		return fx, wake, true // nothing to issue
	}
	// The scan mirrors tickCore's walk over the issue scoreboard, without
	// budgets: a ready compute, an executable EM-SIMD instruction or a
	// memory access that would make progress makes the cycle live.
	sb := st.sb
	end := st.renamed
	fence := end // an EM-SIMD instruction past the head stops the scan
	memBlocked := false
	storeBlocked := false
scan:
	for p := st.head; ; p++ {
		p = sb.next(p, end, allSlots, open(!memBlocked), open(!memBlocked && !storeBlocked))
		if p == end {
			break
		}
		s := p & queueMask
		if sb.compute.has(s) {
			if sb.ready[s] <= now {
				return fx, 0, false // would issue
			}
			fx.sig |= obs.SigExeBUWait
			continue
		}
		x := &st.queue[s]
		switch x.kind {
		case kindEMSIMD:
			if p != st.head {
				fence = p
				break scan // fences the scan; nothing younger is examined
			}
			if x.Op == isa.OpMSR && x.Sys == isa.SysOI {
				if cp.emsimdBusyUntil > now {
					fx.sig |= obs.SigMonitor
					return fx, wake, true
				}
				return fx, 0, false // manager free: the write executes
			}
			if x.Op == isa.OpMSR && x.Sys == isa.SysVL && cp.cfg.Elastic {
				if st.inflight.Count(now) > 0 {
					if !st.draining {
						return fx, 0, false // opening the drain window is a state change
					}
					fx.sig |= obs.SigDrain
					fx.drainWait = true
					return fx, wake, true
				}
				return fx, 0, false // drained: the reconfiguration executes
			}
			return fx, 0, false // MRS and other MSRs execute immediately
		default: // vector load or store
			if x.Active == 0 {
				return fx, 0, false // fully predicated off: issues instantly
			}
			if x.kind == kindMem {
				if st.lhq.Count(now) >= cp.cfg.LHQ {
					fx.sig |= obs.SigLSUWait
					memBlocked = true
					continue
				}
			} else {
				if st.stq.Count(now) >= cp.cfg.STQ {
					fx.sig |= obs.SigLSUWait
					memBlocked = true
					continue
				}
				if !x.depsReady(st, now) {
					fx.sig |= obs.SigLSUWait
					storeBlocked = true
					continue
				}
			}
			// The op would reach AccessFrom. A cycle-invariant MSHR
			// reject repeats until an outstanding miss retires; anything
			// else changes cache state in a way a bulk replay cannot
			// reproduce and must tick for real.
			if cp.vecProbe != nil {
				write := x.kind == kindStore
				if r, rejected := cp.vecProbe.ProbeRetry(now, x.Addr, 4*x.Active, write, c); rejected {
					fx.sig |= obs.SigMemBW
					fx.mshrRetry = true
					fx.retryAddr, fx.retrySize, fx.retryWrite = x.Addr, 4*x.Active, write
					if r < wake {
						wake = r
					}
					memBlocked = true
					continue
				}
			}
			return fx, 0, false // access would make progress
		}
	}
	// A parked compute waits on an unissued producer: the scan signals it
	// like any waiting compute it reaches before a fence.
	if sb.firstWaiting(st.head, fence) < fence {
		fx.sig |= obs.SigExeBUWait
	}
	return fx, wake, true
}

// NextWake implements sim.Sleeper. Only live rows are scanned: a row outside
// live has an empty pool, holds nothing and is not gated, so its scan would
// report a zero-effect quiescent cycle and no wake. A parked row is not
// scanned either: its latched effects hold until its park ends. A fully
// quiescent scan memoizes each row's effects so the SkipTicks call the
// engine issues for the same cycle can replay them without re-scanning.
func (cp *Coproc) NextWake(now uint64) (uint64, bool) {
	cp.sleepOK = false
	wake := uint64(sim.NeverWake)
	if cp.emsimdBusyUntil > now && cp.emsimdBusyUntil < wake {
		wake = cp.emsimdBusyUntil
	}
	for c := cp.live.next(0); c < len(cp.cores); c = cp.live.next(c + 1) {
		if p := cp.cores[c].parkUntil; now < p {
			wake = min(wake, p)
			continue
		}
		fx, w, ok := cp.coreSleep(c, now)
		if !ok {
			return 0, false
		}
		cp.sleepFxs[c] = fx
		if w < wake {
			wake = w
		}
		if r := cp.cores[c].inflight.next(now); r < wake {
			wake = r
		}
	}
	cp.sleepStamp, cp.sleepOK = now, true
	return wake, true
}

// SkipTicks implements sim.Sleeper: the accounting n quiescent Ticks at
// cycles [from, from+n) would have performed. Priority rotation and issue
// budgets need no replay — nothing issues in a quiescent cycle, so budgets
// never decrement and the visit order has no observable effect, except on
// the shared cache port, where the storm group replays retries in tick
// order. Rows outside live would replay nothing (their memo entries are zero
// and their last in-flight release is behind them), so only live rows are
// visited; a parked row's memo entry is its latch.
func (cp *Coproc) SkipTicks(from, n uint64) {
	nc := len(cp.cores)
	if !cp.sleepOK || cp.sleepStamp != from {
		for c := cp.live.next(0); c < nc; c = cp.live.next(c + 1) {
			if from >= cp.cores[c].parkUntil {
				cp.sleepFxs[c], _, _ = cp.coreSleep(c, from)
			}
		}
	}
	clear(cp.stormRows)
	cp.stormFrom, cp.stormCount = from, 0
	for c := cp.live.next(0); c < nc; c = cp.live.next(c + 1) {
		st := cp.cores[c]
		fx := &cp.sleepFxs[c]
		if fx.sig != 0 {
			cp.probe.Signal(c, fx.sig)
		}
		if fx.drainWait {
			st.drainWait += n
			*cp.drainWaitCell += n
		}
		if fx.renameStall {
			st.renameStalls += n
			*cp.renameStallsCell += n
		}
		if fx.mshrRetry {
			st.mshrRetries += n
			*cp.mshrRetriesCell += n
			cp.stormRows.set(c)
			cp.stormCount++
		}
		if st.head < st.tail {
			st.lastActive = from + n - 1
		} else if m := st.inflight.maxRel; m > from {
			// inflight.Count(t) > 0 exactly for t < m: the last
			// qualifying cycle in the window is min(from+n-1, m-1).
			last := from + n - 1
			if m-1 < last {
				last = m - 1
			}
			st.lastActive = last
		}
		// Every elided cycle records zero busy lanes, exactly as the real
		// stalled ticks would: that zero run stays owed on st.acct until
		// flushAcct backfills it (exact for v == 0; see RecordRun).
	}
	if g := cp.storms; cp == g.members[len(g.members)-1] {
		g.replay(from, n)
	}
	// busyLaneCycles accumulates 0.0/lanes per stalled cycle — an exact
	// float64 no-op, so there is nothing to add here.
	cp.acctUpTo = from + n
	cp.cycles += n
	cp.settleIdle()
}

// stormGroup is the set of co-processor instances sharing one vector-cache
// port, in registration order: an instance alone, or every cluster of a
// Complex. Real ticks interleave their rows' retries cycle by cycle — all of
// the first cluster's storming rows in its priority rotation, then the
// next cluster's — so the retries of a skipped window replay in that order
// too. The engine skips every component over the same window, in
// registration order, so each member's SkipTicks records its storming rows
// and the last member's replays the whole group's.
type stormGroup struct {
	members []*Coproc
}

// replay applies the retry storms every member recorded for the skipped
// window [from, from+n).
func (g *stormGroup) replay(from, n uint64) {
	total, sole, soleRow := 0, (*Coproc)(nil), -1
	for _, m := range g.members {
		if m.stormFrom != from {
			panic(fmt.Sprintf("coproc: %s skipped from cycle %d, its storm group from %d", m.name, m.stormFrom, from))
		}
		if m.stormCount > 0 {
			total += m.stormCount
			sole, soleRow = m, m.stormRows.next(0)
		}
	}
	switch {
	case total == 1:
		// Sole storming row: one bulk replay covers the window.
		fx := &sole.sleepFxs[soleRow]
		sole.vecProbe.ReplayRetries(from, n, fx.retryAddr, fx.retrySize, fx.retryWrite, soleRow)
	case total > 1:
		// Concurrent storms interleave their bandwidth-meter updates in
		// tick order, so replay cycle-major, visiting the storming rows in
		// exactly that order. Each single-cycle ReplayRetries re-walks a
		// few cache lines — far cheaper than the full component tick it
		// replaces.
		for t := from; t < from+n; t++ {
			for _, m := range g.members {
				if m.stormCount == 0 {
					continue
				}
				nc := len(m.cores)
				start := int(t % uint64(nc))
				for _, span := range [2][2]int{{start, nc}, {0, start}} {
					for c := m.stormRows.next(span[0]); c < span[1]; c = m.stormRows.next(c + 1) {
						fx := &m.sleepFxs[c]
						m.vecProbe.ReplayRetries(t, 1, fx.retryAddr, fx.retrySize, fx.retryWrite, c)
					}
				}
			}
		}
	}
}
