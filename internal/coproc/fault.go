package coproc

import "math"

// deadGate marks an issue gate that never opens: the gated core (or the
// shared issue stage) is out of service.
const deadGate = math.MaxUint64

// faultState holds every fault-injected degradation the co-processor models.
// It is nil on healthy runs — each hot-path hook is a single pointer check —
// so fault-free timing stays bit-identical to a build without faults.
type faultState struct {
	// issueGate[c] > 1 lets core c issue only on cycles where
	// now % gate == 0, modeling a victim core serializing its work through
	// the surviving units of a partition it cannot reconfigure (Private).
	// deadGate blocks the core entirely (its whole partition failed).
	issueGate []uint64
	// sharedGate does the same to every core at once: the FTS policy,
	// where failed units stall the shared issue/renaming structures that
	// all cores time-share.
	sharedGate uint64
	// regsCut[c] physical registers are out of service in core c's RegBlk
	// file; regsCutTotal is the sum, charged against the shared pool under
	// SharedVRF.
	regsCut      []int
	regsCutTotal int
	// link models the flaky CPU→coproc dispatch path per core.
	link []linkFault
	// drops counts refused transmissions, for diagnostics.
	drops uint64
	// forceVL[c] is a pending fault-revocation target for core c's vector
	// length (-1 none). It takes effect at the core's next strip boundary —
	// the OpRdElems that samples the width for the coming strip — never
	// mid-strip, where a width change would strand elements between the old
	// and new widths (the §4.2.2 hazard). In-flight work drains at the old
	// width, as in a protocol reconfiguration.
	forceVL []int
}

// linkFault is one core's dispatch-link fault window: transmissions are
// dropped and the retry (the scalar core re-transmits every cycle, as for a
// full pool) is accepted only after a bounded exponential backoff.
type linkFault struct {
	active     bool
	base       uint64
	backoff    uint64
	nextAccept uint64
}

// linkBackoffCap bounds the exponential backoff at 16x the base delay.
const linkBackoffCap = 16

func (cp *Coproc) ensureFault() *faultState {
	if cp.flt == nil {
		cp.flt = &faultState{
			issueGate: make([]uint64, cp.cfg.Cores),
			regsCut:   make([]int, cp.cfg.Cores),
			link:      make([]linkFault, cp.cfg.Cores),
			forceVL:   make([]int, cp.cfg.Cores),
		}
		for c := range cp.flt.forceVL {
			cp.flt.forceVL[c] = -1
		}
	}
	return cp.flt
}

// SetForcedVL schedules a shrink-only vector-length revocation for core c,
// applied at the core's next strip boundary (see faultState.forceVL). A
// target at or above the current VL cancels any pending revocation instead —
// the fault controller never force-grows a fixed-mode binary.
func (cp *Coproc) SetForcedVL(c, want int) {
	f := cp.ensureFault()
	cp.unpark(c)
	if want < 0 || want >= cp.tbl.VL(c) {
		f.forceVL[c] = -1
		return
	}
	f.forceVL[c] = want
}

// ForcedVLPending reports whether core c has a revocation waiting for its
// strip boundary.
func (cp *Coproc) ForcedVLPending(c int) bool {
	return cp.flt != nil && cp.flt.forceVL[c] >= 0
}

// StripBoundary is called by the scalar core when it samples the vector
// length for a new strip (OpRdElems): the only point a fault revocation — or,
// on a clustered machine, a tenant migration — may land. It reports whether
// the core may start the strip; a plain (single-cluster) co-processor never
// withholds the boundary, while Complex returns false during the drained
// window of an in-flight migration.
func (cp *Coproc) StripBoundary(c int) bool {
	if cp.flt == nil {
		return true
	}
	if want := cp.flt.forceVL[c]; want >= 0 {
		cp.tbl.ForceVL(c, want)
		cp.flt.forceVL[c] = -1
		cp.unpark(c)
	}
	return true
}

// SetIssueGate throttles core c to one issue window every gate cycles
// (gate <= 1 removes the throttle, deadGate — see GateDead — blocks the core
// for good). A gated row is live: the sleep mirror must see its gate.
func (cp *Coproc) SetIssueGate(c int, gate uint64) {
	cp.ensureFault().issueGate[c] = gate
	cp.unpark(c)
	if gate > 1 {
		cp.live.set(c)
	} else {
		cp.settle(c)
	}
}

// GateDead is the issue-gate value that never opens.
const GateDead = deadGate

// SetSharedGate throttles every core's issue to one window every gate
// cycles (the FTS shared-structure stall). gate <= 1 removes it. The gate
// covers every row, so every row is live while it holds.
func (cp *Coproc) SetSharedGate(gate uint64) {
	cp.ensureFault().sharedGate = gate
	cp.unparkAll()
	if gate > 1 {
		copy(cp.live, cp.allRows)
	} else {
		cp.settleIdle()
	}
}

// gated reports whether a fault issue gate covers row c.
func (cp *Coproc) gated(c int) bool {
	return cp.flt != nil && (cp.flt.sharedGate > 1 || cp.flt.issueGate[c] > 1)
}

// CutRegs takes n physical registers of core c's RegBlk file out of service
// (a failed register bank). Under SharedVRF the cut charges the shared pool.
func (cp *Coproc) CutRegs(c, n int) {
	f := cp.ensureFault()
	f.regsCut[c] += n
	f.regsCutTotal += n
	cp.unpark(c)
}

// RestoreRegs returns n registers of core c's file to service.
func (cp *Coproc) RestoreRegs(c, n int) {
	f := cp.ensureFault()
	if n > f.regsCut[c] {
		n = f.regsCut[c]
	}
	f.regsCut[c] -= n
	f.regsCutTotal -= n
	cp.unpark(c)
}

// SetLinkFault opens a dispatch-link fault window on core c: transmissions
// are refused until a backoff expires, the backoff doubling per accepted
// message from base up to 16x base.
func (cp *Coproc) SetLinkFault(c int, base uint64, now uint64) {
	if base == 0 {
		base = 8
	}
	cp.ensureFault().link[c] = linkFault{
		active:     true,
		base:       base,
		backoff:    2 * base,
		nextAccept: now + base,
	}
	cp.unpark(c)
}

// ClearLinkFault closes core c's dispatch-link fault window.
func (cp *Coproc) ClearLinkFault(c int) {
	if cp.flt != nil {
		cp.flt.link[c] = linkFault{}
	}
	cp.unpark(c)
}

// LinkDrops reports how many transmissions the faulted links refused.
func (cp *Coproc) LinkDrops() uint64 {
	if cp.flt == nil {
		return 0
	}
	return cp.flt.drops
}

// issueAllowed implements the issue gates; called only when faults are
// active.
func (f *faultState) issueAllowed(c int, now uint64) bool {
	if f.sharedGate == deadGate {
		return false
	}
	if f.sharedGate > 1 && now%f.sharedGate != 0 {
		return false
	}
	g := f.issueGate[c]
	if g == deadGate {
		return false
	}
	if g > 1 && now%g != 0 {
		return false
	}
	return true
}

// gateWake bounds a gated core's quiescent window: the next cycle at which
// a closed issue gate could reopen (the next multiple of the tightest active
// periodic gate), or deadGate — which equals sim.NeverWake — when a dead gate
// blocks the core for good. Interior cycles are off-cycles for the bounding
// gate, so each repeats the gated tick's accounting exactly; at the wake the
// engine re-probes, and a still-closed companion gate just opens the next
// window.
func (f *faultState) gateWake(c int, now uint64) uint64 {
	g := f.issueGate[c]
	if f.sharedGate == deadGate || g == deadGate {
		return deadGate
	}
	wake := uint64(deadGate)
	if f.sharedGate > 1 {
		wake = now + f.sharedGate - now%f.sharedGate
	}
	if g > 1 {
		if w := now + g - now%g; w < wake {
			wake = w
		}
	}
	return wake
}

// linkAccept decides whether core c's transmission at cycle now makes it
// across a faulted link; called only when faults are active.
func (f *faultState) linkAccept(c int, now uint64) bool {
	lf := &f.link[c]
	if !lf.active {
		return true
	}
	if now < lf.nextAccept {
		f.drops++
		return false
	}
	lf.nextAccept = now + lf.backoff
	lf.backoff *= 2
	if cap := linkBackoffCap * lf.base; lf.backoff > cap {
		lf.backoff = cap
	}
	return true
}

// Progress implements sim.ProgressReporter: a counter that moves on every
// issued operation, so the forward-progress watchdog can tell a draining
// backlog from a wedged dispatcher.
func (cp *Coproc) Progress() uint64 { return cp.progress }

// PipeSnapshot is a point-in-time view of one core's co-processor pipeline,
// for the watchdog's diagnostic dump.
type PipeSnapshot struct {
	// QueueLen is the instruction-pool occupancy; Renamed of those hold
	// physical destination registers.
	QueueLen int
	Renamed  int
	// HeadOp names the oldest unissued instruction ("" when empty).
	HeadOp string
	// Inflight, LHQ and STQ are issued-but-incomplete op counts.
	Inflight int
	LHQ      int
	STQ      int
	// PoolHeld is the number of physical registers held.
	PoolHeld int
	// Draining marks an open §4.2.2 drain window.
	Draining   bool
	DrainWait  uint64
	LastActive uint64
	VL         int
	Decision   int
}

// PipelineSnapshot captures core c's pipeline state at cycle now.
func (cp *Coproc) PipelineSnapshot(c int, now uint64) PipeSnapshot {
	st := cp.cores[c]
	st.flushAcct(cp.acctUpTo)
	ps := PipeSnapshot{
		Draining:   st.draining,
		DrainWait:  st.drainWait,
		LastActive: st.lastActive,
		VL:         cp.VL(c),
		Decision:   cp.tbl.Decision(c),
	}
	if !cp.live.has(c) {
		return ps // nothing queued, nothing held
	}
	ps.QueueLen = st.tail - st.head
	ps.Renamed = st.renamed - st.head
	ps.Inflight = st.inflight.Count(now)
	ps.LHQ = st.lhq.Count(now)
	ps.STQ = st.stq.Count(now)
	ps.PoolHeld = st.pool.held(now)
	for i := st.head; i < st.tail; i++ {
		if x := st.at(i); !x.issued {
			ps.HeadOp = x.Op.String()
			break
		}
	}
	return ps
}
