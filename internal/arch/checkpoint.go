package arch

import (
	"occamy/internal/coproc"
	"occamy/internal/cpu"
	"occamy/internal/digest"
	"occamy/internal/fault"
	"occamy/internal/mem"
	"occamy/internal/obs"
	"occamy/internal/sim"
	"occamy/internal/telemetry"
)

// This file composes the per-component checkpoints into a whole-system
// snapshot, the substrate for shared-warm-up sweeps: simulate a sweep's
// common prefix once, Checkpoint, then fork every sweep point from the
// snapshot with RestoreCheckpoint (+ SetFaultSchedule for fault sweeps).
// A restored run is bit-identical to a straight run of the same
// configuration — cycles, every counter, attribution, recovery log — which
// the differential tests in checkpoint_test.go enforce across all four
// architectures.

// SystemState is a complete, deep system checkpoint. It captures mutable
// simulation state only — each component's state struct, cloned by the
// state codec (internal/digest) — while configuration and wiring
// (workloads and their programs, machine parameters, tick order, probe
// sinks) are not in it, so a snapshot restores only onto the System it was
// taken from (or one built identically).
type SystemState struct {
	stateContent

	// digest is the content digest over stateContent, stamped at
	// Checkpoint time and re-verified by RestoreCheckpoint (see digest.go).
	// It is what makes a snapshot safe to hold in a cache: a corrupted or
	// tampered snapshot is refused, never silently restored.
	digest uint64
}

// stateContent is everything a SystemState holds but its digest stamp.
type stateContent struct {
	engine sim.EngineState
	stats  map[string]uint64
	hier   mem.HierarchyState
	cplx   coproc.ComplexCheckpoint
	cores  []cpu.FullState
	probe  obs.ProbeState
	ctl    *ctlState // nil without a fault controller
	inj    fault.InjectorState
	tele   telemetry.SamplerState
}

// Cycle returns the cycle the checkpoint was taken at.
func (st *SystemState) Cycle() uint64 { return st.engine.Cycle() }

// state settles every component and returns the system's live state in a
// snapshot's layout, sharing storage with the live components. The counter
// registry and the probe, whose snapshots are built by hand, are left out
// (zero): withRegistries adds them.
func (s *System) state() stateContent {
	st := stateContent{
		engine: s.Engine.EngineState,
		hier:   s.Hier.State(),
		cplx:   s.Cplx.State(),
		inj:    s.inj.State(),
		tele:   s.Tele.State(),
	}
	for _, core := range s.Cores {
		st.cores = append(st.cores, core.FullState)
	}
	if s.faults != nil {
		st.ctl = &s.faults.ctlState
	}
	return st
}

// withRegistries fills in the snapshots of the counter registry and the
// probe, which are fresh copies already.
func (s *System) withRegistries(st stateContent) stateContent {
	st.stats, st.probe = s.Stats.Snapshot(), s.Probe.Snapshot()
	return st
}

// Checkpoint captures the full machine state at the current cycle: the
// settled live state, cloned.
func (s *System) Checkpoint() *SystemState {
	live := s.state()
	st := &SystemState{stateContent: s.withRegistries(digest.Clone(&live))}
	st.digest = st.computeDigest()
	s.Tele.EmitMeta(s.Engine.Cycle(), telemetry.EvCheckpoint, "")
	return st
}

// RestoreCheckpoint rewinds the system to a Checkpoint. The fault schedule is
// restored as-is (cursors rewound on the same schedule); fork a different
// sweep point by calling SetFaultSchedule afterwards.
//
// Before touching any component it re-verifies the snapshot's content digest;
// a snapshot that was corrupted since capture is refused with a
// *CorruptCheckpointError and the system is left exactly as it was — the
// caller can evict the snapshot and fall back to a cold run.
func (s *System) RestoreCheckpoint(st *SystemState) error {
	if err := st.Verify(); err != nil {
		return err
	}
	s.restore(st)
	return nil
}

// RestoreCheckpointTrusted rewinds the system to a Checkpoint without
// re-verifying its content digest. The integrity check exists for snapshots
// that sat somewhere — an in-process cache, a parked job, a file — between
// capture and restore; a sweep fork loop that restores the same snapshot it
// just captured (or one it verified on the first fork) gains no safety from
// re-hashing it on every point. Callers own the trust decision: verify the
// first restore, trust the rest, and keep using RestoreCheckpoint for
// anything that crossed a cache.
func (s *System) RestoreCheckpointTrusted(st *SystemState) { s.restore(st) }

func (s *System) restore(st *SystemState) {
	s.Engine.Restore(st.engine)
	s.Stats.Restore(st.stats)
	s.Hier.Restore(st.hier)
	s.Cplx.RestoreCheckpoint(st.cplx)
	for c, core := range s.Cores {
		core.RestoreCheckpoint(st.cores[c])
	}
	s.Probe.Restore(st.probe)
	if s.faults != nil && st.ctl != nil {
		digest.Copy(&s.faults.ctlState, st.ctl)
	}
	s.inj.Restore(st.inj)
	s.Tele.Restore(st.tele)
	s.Tele.EmitMeta(s.Engine.Cycle(), telemetry.EvRestore, "")
}

// SetInterrupt installs a cooperative cancellation signal on the engine:
// when done becomes ready (usually a context's Done channel), the run stops
// at the next cycle-aligned poll point with a sim.CanceledError (wrapped in
// the usual DiagError with a machine dump). An interrupt that never fires
// leaves results bit-identical to a run without one.
func (s *System) SetInterrupt(done <-chan struct{}) { s.Engine.SetInterrupt(done) }

// RunTo simulates until the clock reaches cycle (a no-op when already
// there), the natural way to advance to a sweep's checkpoint cycle. Unlike
// Run it does not stop at completion — callers pick checkpoint cycles well
// inside the run.
func (s *System) RunTo(cycle uint64) error {
	now := s.Engine.Cycle()
	if cycle <= now {
		return nil
	}
	if _, err := s.Engine.RunUntil(func() bool { return s.Engine.Cycle() >= cycle }, cycle-now); err != nil {
		return err
	}
	return nil
}
