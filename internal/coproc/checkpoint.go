package coproc

import (
	"occamy/internal/digest"
	"occamy/internal/lanemgr"
)

// This file implements the co-processor side of the system checkpoint. The
// state lives in plain-data structs (each cluster's coprocState, its
// resource table's TblState and its lane manager's ManagerState, and each
// row's rowState), which the state codec clones and copies back; the
// Complex's checkpoint holds every cluster's and, once, every row's.
// Configuration and wiring (ports, probe, responder, roofline model) and
// derived state (the issue scoreboards, the home and row sets, the rows'
// latched stall effects and parks) are not captured: a checkpoint restores
// onto the machine it was taken from (or an identically built one), which
// rebuilds the derived state.

// CheckpointState is one co-processor instance's checkpoint: its own state,
// its resource table's and its lane manager's. The rows it hosts are the
// Complex's to checkpoint.
type CheckpointState struct {
	coprocState
	tbl lanemgr.TblState
	mgr lanemgr.ManagerState
}

// state returns the instance's live state in a checkpoint's layout, sharing
// storage with the instance.
func (cp *Coproc) state() CheckpointState {
	return CheckpointState{coprocState: cp.coprocState, tbl: cp.tbl.TblState, mgr: cp.mgr.ManagerState}
}

// restore rewinds the instance to a checkpoint of an identically configured
// one whose rows and home set are already restored, then rebuilds its
// derived state: the row sets (from the restored queues, trackers and
// gates), with every park ended so a restored cycle re-probes quiescence
// from scratch.
func (cp *Coproc) restore(st CheckpointState) {
	digest.Copy(&cp.coprocState, &st.coprocState)
	cp.tbl.Restore(st.tbl)
	digest.Copy(&cp.mgr.ManagerState, &st.mgr)
	cp.deriveRowSets(cp.active, cp.live)
	cp.unparkAll()
}

// restore rewinds the row to a checkpointed rowState, then rebuilds what is
// derived from it: the hold trackers' drain bounds and the issue scoreboard.
func (st *coreState) restore(rs *rowState) {
	digest.Copy(&st.rowState, rs)
	for _, t := range [...]*holdTracker{&st.inflight, &st.lhq, &st.stq, &st.pool.issued} {
		t.rebuild()
	}
	st.rebuildScoreboard()
}

// deriveRowSets computes the row sets from the home rows' queues, trackers
// and gates at the current cycle boundary (see Coproc.active): the
// definition restore rebuilds from, and CheckScoreboard holds the running
// sets to. A hold is live at the boundary exactly when its release is later:
// every drain so far ran at an earlier cycle, so the latest release (maxRel,
// recomputed from the surviving entries on restore) is still tracked.
func (cp *Coproc) deriveRowSets(active, live rowSet) {
	clear(active)
	clear(live)
	for c := cp.home.next(0); c < len(cp.cores); c = cp.home.next(c + 1) {
		if st := cp.cores[c]; st.head < st.tail {
			active.set(c)
			live.set(c)
		} else if st.inflight.maxRel > cp.cycles || cp.gated(c) {
			live.set(c)
		}
	}
}
