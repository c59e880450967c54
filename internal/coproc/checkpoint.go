package coproc

import (
	"occamy/internal/digest"
	"occamy/internal/lanemgr"
)

// This file implements the co-processor side of the system checkpoint. The
// state lives in plain-data structs (coprocState, each row's rowState, the
// resource table's TblState and the lane manager's ManagerState), which the
// state codec clones and copies back. Configuration and wiring (ports,
// probe, responder, roofline model) and derived state (the issue
// scoreboards, the row sets, the sleep-scan memo, renameStallNow) are not
// captured: a checkpoint restores onto the instance it was taken from (or an
// identically built one), which rebuilds the derived state.

// CheckpointState is a complete co-processor checkpoint.
type CheckpointState struct {
	coprocState
	cores []rowState
	tbl   lanemgr.TblState
	mgr   lanemgr.ManagerState
}

// State settles every row's owed accounting and returns the co-processor's
// live state in a checkpoint's layout. It shares storage with the instance:
// clone it (Checkpoint) before the instance runs on.
func (cp *Coproc) State() CheckpointState {
	st := CheckpointState{
		coprocState: cp.coprocState,
		cores:       make([]rowState, len(cp.cores)),
		tbl:         cp.tbl.TblState,
		mgr:         cp.mgr.ManagerState,
	}
	for i, c := range cp.cores {
		c.flushAcct(cp.acctUpTo)
		st.cores[i] = c.rowState
	}
	return st
}

// Checkpoint captures the co-processor's full simulation state at any cycle.
func (cp *Coproc) Checkpoint() CheckpointState {
	st := cp.State()
	return digest.Clone(&st)
}

// RestoreCheckpoint rewinds the co-processor to a Checkpoint taken on an
// identically configured instance, then rebuilds the derived state: the
// hold trackers' drain bounds, the busy timelines' cursors, the issue
// scoreboards and row sets (from the restored queues, trackers and gates),
// and the sleep-scan memo, invalidated so a restored cycle re-probes
// quiescence from scratch.
func (cp *Coproc) RestoreCheckpoint(st CheckpointState) {
	digest.Copy(&cp.coprocState, &st.coprocState)
	cp.tbl.Restore(st.tbl)
	digest.Copy(&cp.mgr.ManagerState, &st.mgr)
	for i, c := range cp.cores {
		digest.Copy(&c.rowState, &st.cores[i])
		for _, t := range [...]*holdTracker{&c.inflight, &c.lhq, &c.stq, &c.pool.issued} {
			t.rebuild()
		}
		c.busyTimeline.RestoreCursor()
		c.rebuildScoreboard()
	}
	clear(cp.renameStallNow)
	cp.deriveRowSets(cp.active, cp.live)
	clear(cp.sleepFxs)
	cp.sleepOK = false
	cp.sleepStamp = 0
}

// deriveRowSets computes the row sets from the queues, trackers and gates at
// the cycle boundary acctUpTo (see Coproc.active): the definition
// RestoreCheckpoint rebuilds from, and CheckScoreboard holds the running
// sets to. A hold is live at acctUpTo exactly when its release is later:
// every drain so far ran at an earlier cycle, so the latest release (maxRel,
// recomputed from the surviving entries on restore) is still tracked.
func (cp *Coproc) deriveRowSets(active, live rowSet) {
	clear(active)
	clear(live)
	for c, st := range cp.cores {
		if st.head < st.tail {
			active.set(c)
			live.set(c)
		} else if st.inflight.maxRel > cp.acctUpTo || cp.gated(c) {
			live.set(c)
		}
	}
}
