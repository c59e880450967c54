package coproc

import (
	"occamy/internal/isa"
	"occamy/internal/lanemgr"
	"occamy/internal/sim"
)

// This file implements the co-processor side of the system checkpoint: a
// deep, cycle-accurate copy of everything Tick/Transmit mutate, so a restored
// run resumes bit-identically mid-flight — mid-backlog, mid-drain, even
// mid-fault. Configuration and wiring (ports, probe, responder, roofline
// model) are not captured: a checkpoint restores onto the instance it was
// taken from (or an identically built one).

// ckCore is the checkpoint of one core's coreState.
type ckCore struct {
	queue   []XInst // full ring copy (slot order)
	head    int
	tail    int
	renamed int

	z          []float32 // flat [reg*lanes] copy
	seqCounter uint64
	lastWriter [isa.NumZRegs]uint64
	done       []doneEntry // nil when the core never transmitted here

	inflight   []uint64
	lhq        []uint64
	stq        []uint64
	poolQueued int
	poolIssued []uint64

	computeIssued  uint64
	memIssued      uint64
	computeByPhase []uint64
	renameStalls   uint64
	mshrRetries    uint64
	drainWait      uint64
	draining       bool
	drainStart     uint64
	lastReject     int
	lastActive     uint64
	busyLaneAccum  float64
	timeline       sim.TimelineState
}

// ckFault is the checkpoint of the injected-fault effects (nil when none
// were ever injected).
type ckFault struct {
	issueGate    []uint64
	sharedGate   uint64
	regsCut      []int
	regsCutTotal int
	link         []linkFault
	drops        uint64
	forceVL      []int
}

// CheckpointState is a complete co-processor checkpoint.
type CheckpointState struct {
	cores           []ckCore
	tbl             lanemgr.TblState
	repartitions    uint64
	emsimdBusyUntil uint64
	busyLaneCycles  float64
	cycles          uint64
	events          []LaneEvent
	flt             *ckFault
	progress        uint64
	acctUpTo        uint64
}

// Checkpoint captures the co-processor's full simulation state at any cycle.
func (cp *Coproc) Checkpoint() CheckpointState {
	st := CheckpointState{
		tbl:             cp.tbl.Snapshot(),
		repartitions:    cp.mgr.Repartitions,
		emsimdBusyUntil: cp.emsimdBusyUntil,
		busyLaneCycles:  cp.busyLaneCycles,
		cycles:          cp.cycles,
		events:          append([]LaneEvent(nil), cp.events...),
		progress:        cp.progress,
		acctUpTo:        cp.acctUpTo,
	}
	for _, c := range cp.cores {
		c.flushAcct(cp.acctUpTo) // settle owed accounting before snapshotting
		ck := ckCore{
			queue:          append([]XInst(nil), c.queue[:]...),
			head:           c.head,
			tail:           c.tail,
			renamed:        c.renamed,
			seqCounter:     c.seqCounter,
			lastWriter:     c.lastWriter,
			done:           append([]doneEntry(nil), c.done.entries...),
			inflight:       append([]uint64(nil), c.inflight.releases...),
			lhq:            append([]uint64(nil), c.lhq.releases...),
			stq:            append([]uint64(nil), c.stq.releases...),
			poolQueued:     c.pool.queued,
			poolIssued:     append([]uint64(nil), c.pool.issued.releases...),
			computeIssued:  c.computeIssued,
			memIssued:      c.memIssued,
			computeByPhase: append([]uint64(nil), c.computeByPhase...),
			renameStalls:   c.renameStalls,
			mshrRetries:    c.mshrRetries,
			drainWait:      c.drainWait,
			draining:       c.draining,
			drainStart:     c.drainStart,
			lastReject:     c.lastReject,
			lastActive:     c.lastActive,
			busyLaneAccum:  c.busyLaneAccum,
			timeline:       c.busyTimeline.Snapshot(),
		}
		lanes := cp.cfg.Lanes()
		ck.z = make([]float32, isa.NumZRegs*lanes)
		for r := range c.z {
			copy(ck.z[r*lanes:(r+1)*lanes], c.z[r])
		}
		st.cores = append(st.cores, ck)
	}
	if cp.flt != nil {
		st.flt = &ckFault{
			issueGate:    append([]uint64(nil), cp.flt.issueGate...),
			sharedGate:   cp.flt.sharedGate,
			regsCut:      append([]int(nil), cp.flt.regsCut...),
			regsCutTotal: cp.flt.regsCutTotal,
			link:         append([]linkFault(nil), cp.flt.link...),
			drops:        cp.flt.drops,
			forceVL:      append([]int(nil), cp.flt.forceVL...),
		}
	}
	return st
}

// RestoreCheckpoint rewinds the co-processor to a Checkpoint taken on an
// identically configured instance. The sleep-scan memo is invalidated: a
// restored cycle must re-probe quiescence from scratch. The issue
// scoreboard is derived state, rebuilt from the restored queue.
func (cp *Coproc) RestoreCheckpoint(st CheckpointState) {
	cp.tbl.Restore(st.tbl)
	cp.mgr.Repartitions = st.repartitions
	cp.emsimdBusyUntil = st.emsimdBusyUntil
	cp.busyLaneCycles = st.busyLaneCycles
	cp.cycles = st.cycles
	cp.events = append(cp.events[:0], st.events...)
	cp.progress = st.progress
	cp.acctUpTo = st.acctUpTo
	lanes := cp.cfg.Lanes()
	for i, c := range cp.cores {
		ck := &st.cores[i]
		copy(c.queue[:], ck.queue)
		c.head = ck.head
		c.tail = ck.tail
		c.renamed = ck.renamed
		c.seqCounter = ck.seqCounter
		c.lastWriter = ck.lastWriter
		if ck.done == nil {
			c.done.entries = nil // the core never transmitted here
		} else {
			if c.done.entries == nil {
				c.done.init()
			}
			copy(c.done.entries, ck.done)
		}
		c.inflight.restore(ck.inflight)
		c.lhq.restore(ck.lhq)
		c.stq.restore(ck.stq)
		c.pool.queued = ck.poolQueued
		c.pool.issued.restore(ck.poolIssued)
		c.computeIssued = ck.computeIssued
		c.memIssued = ck.memIssued
		c.computeByPhase = append(c.computeByPhase[:0], ck.computeByPhase...)
		c.renameStalls = ck.renameStalls
		c.mshrRetries = ck.mshrRetries
		c.drainWait = ck.drainWait
		c.draining = ck.draining
		c.drainStart = ck.drainStart
		c.lastReject = ck.lastReject
		c.lastActive = ck.lastActive
		c.busyLaneAccum = ck.busyLaneAccum
		c.acct = st.acctUpTo // the checkpoint was taken fully flushed
		c.busyTimeline.Restore(ck.timeline)
		for r := range c.z {
			copy(c.z[r], ck.z[r*lanes:(r+1)*lanes])
		}
		c.rebuildScoreboard()
	}
	if st.flt != nil {
		f := cp.ensureFault()
		copy(f.issueGate, st.flt.issueGate)
		f.sharedGate = st.flt.sharedGate
		copy(f.regsCut, st.flt.regsCut)
		f.regsCutTotal = st.flt.regsCutTotal
		copy(f.link, st.flt.link)
		f.drops = st.flt.drops
		copy(f.forceVL, st.flt.forceVL)
	} else if cp.flt != nil {
		// The checkpoint predates fault injection: neutralize every effect
		// (keeping the allocated faultState — its zero state is inert).
		for c := range cp.flt.issueGate {
			cp.flt.issueGate[c] = 0
			cp.flt.regsCut[c] = 0
			cp.flt.link[c] = linkFault{}
			cp.flt.forceVL[c] = -1
		}
		cp.flt.sharedGate = 0
		cp.flt.regsCutTotal = 0
		cp.flt.drops = 0
	}
	for c := range cp.renameStallNow {
		cp.renameStallNow[c] = false
		cp.acctNow[c] = false
	}
	cp.sleepOK = false
	cp.sleepStamp = 0
}
