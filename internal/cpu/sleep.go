package cpu

import (
	"occamy/internal/isa"
	"occamy/internal/obs"
	"occamy/internal/sim"
)

// This file implements sim.Sleeper for the scalar core: a side-effect-free
// mirror of the first gate Tick would hit, so the skip-ahead engine can elide
// stall cycles while replaying their accounting exactly.
//
// A live core's Tick always charges the current phase's cycle counter and
// raises SigScalar; beyond that, a cycle is quiescent only when the first
// instruction stalls on a gate whose per-cycle effects are fixed:
//
//   - a register scoreboard gate (no extra effects; wake = the register's
//     ready timestamp, NeverWake when it awaits a co-processor response),
//   - the MOB vector-quiescence gate (SigLSUWait + the mob_stall counter;
//     the co-processor's wake bounds the window),
//   - a refused Transmit (SigDispatchFull + the pool_full counter; pool
//     space frees only at a co-processor tick event).
//
// Anything that would reach execution — including an L1 access, which
// mutates cache state even when rejected — reports live.

// stallGate classifies the first gate the instruction at pc fails at cycle
// now. ok=false means the instruction would make progress (or reach a
// side-effecting stage) and the tick must run for real.
func (c *Core) stallGate(in *isa.Inst, now uint64) (wake uint64, sig obs.Sig, counter *uint64, ok bool) {
	// firstX/firstF return the first not-ready register's ready timestamp,
	// honouring the gate evaluation order of execute().
	firstX := func(regs ...isa.Reg) (uint64, bool) {
		for _, r := range regs {
			if !c.xReadyAt(r, now) {
				return c.xReady[r], true
			}
		}
		return 0, false
	}
	firstF := func(regs ...isa.Reg) (uint64, bool) {
		for _, r := range regs {
			if !c.fReadyAt(r, now) {
				return c.fReady[r], true
			}
		}
		return 0, false
	}
	// poolGate is the shared Transmit stage: a full pool is a quiescent
	// stall, a free slot means the instruction transmits (progress).
	poolGate := func() (uint64, obs.Sig, *uint64, bool) {
		if c.cp.PoolFull(c.id) {
			return sim.NeverWake, obs.SigDispatchFull, c.poolFullCell, true
		}
		return 0, 0, nil, false
	}

	op := in.Op
	switch {
	case op.Class() == isa.ClassSVE:
		switch op {
		case isa.OpVLoad, isa.OpVStore:
			if w, bad := firstX(in.Src1, in.Src2); bad {
				return w, 0, nil, true
			}
		case isa.OpVDupX, isa.OpVInsX0:
			if w, bad := firstX(in.Src1); bad {
				return w, 0, nil, true
			}
		}
		return poolGate()
	case op.IsEMSIMD():
		if op == isa.OpMRS {
			if in.Sys == isa.SysStatus {
				return poolGate()
			}
			return 0, 0, nil, false // speculative read: executes
		}
		// MSR: resolve the value, then transmit.
		if in.Src1 != isa.RegNone {
			if w, bad := firstX(in.Src1); bad {
				return w, 0, nil, true
			}
		}
		return poolGate()
	}

	switch op {
	case isa.OpMov, isa.OpAddI, isa.OpSubI, isa.OpMulI, isa.OpIncVL, isa.OpBEQI, isa.OpBNEI:
		if w, bad := firstX(in.Src1); bad {
			return w, 0, nil, true
		}
	case isa.OpAdd, isa.OpSub, isa.OpBLT, isa.OpBGE, isa.OpBEQ, isa.OpBNE:
		if w, bad := firstX(in.Src1, in.Src2); bad {
			return w, 0, nil, true
		}
	case isa.OpVWhile:
		if in.Imm != 1 {
			if w, bad := firstX(in.Src1, in.Src2); bad {
				return w, 0, nil, true
			}
		}
	case isa.OpSLoadF, isa.OpSStoreF:
		if w, bad := firstX(in.Src1); bad {
			return w, 0, nil, true
		}
		if c.cp.MemInFlight(c.id, now) > 0 {
			return sim.NeverWake, obs.SigLSUWait, c.mobStallCell, true
		}
		if op == isa.OpSStoreF {
			if w, bad := firstF(in.Dst); bad {
				return w, 0, nil, true
			}
		}
		return 0, 0, nil, false // would access the L1 (mutates even on reject)
	case isa.OpSFAdd, isa.OpSFSub, isa.OpSFMul, isa.OpSFDiv, isa.OpSFMax, isa.OpSFMin:
		if w, bad := firstF(in.Src1, in.Src2); bad {
			return w, 0, nil, true
		}
	case isa.OpSFMla:
		if w, bad := firstF(in.Src1, in.Src2, in.Dst); bad {
			return w, 0, nil, true
		}
	case isa.OpSIAdd, isa.OpSISub, isa.OpSIMul, isa.OpSIAnd, isa.OpSIOr, isa.OpSIXor,
		isa.OpSIShl, isa.OpSIShr, isa.OpSIMax, isa.OpSIMin:
		if w, bad := firstF(in.Src1, in.Src2); bad {
			return w, 0, nil, true
		}
	case isa.OpSFAbs, isa.OpSFNeg, isa.OpSFSqrt:
		if w, bad := firstF(in.Src1); bad {
			return w, 0, nil, true
		}
	}
	return 0, 0, nil, false // the instruction executes this cycle
}

// NextWake implements sim.Sleeper. A halted or parked core ticks with no
// effects at all; a live one is quiescent only while its first instruction
// stalls on a fixed-effect gate (a register gate's failure set can only
// shrink as time passes, so the first failing gate is stable until its
// declared wake).
func (c *Core) NextWake(now uint64) (uint64, bool) {
	if c.halted || c.parked || c.waitSlot {
		return sim.NeverWake, true // a pool wait ends only at a co-processor event
	}
	in := c.prog.AtPtr(c.pc)
	if in.Phase != c.phase {
		return 0, false // phase entry updates stats/trace once
	}
	wake, _, _, ok := c.stallGate(in, now)
	return wake, ok
}

// SkipTicks implements sim.Sleeper: replays the accounting of n stalled
// ticks. Signals are raised once — the probe charges its settled mask once
// per elided cycle — while counters scale by n.
func (c *Core) SkipTicks(from, n uint64) {
	if c.halted || c.parked {
		return
	}
	*c.phaseCycleCells[c.phase+1] += n
	c.probe.Signal(c.id, obs.SigScalar)
	in := c.prog.AtPtr(c.pc)
	_, sig, counter, _ := c.stallGate(in, from)
	if sig != 0 {
		c.probe.Signal(c.id, sig)
	}
	if counter != nil {
		*counter += n
	}
}
