package coproc

import (
	"math"

	"occamy/internal/isa"
	"occamy/internal/obs"
)

// execEMSIMD executes one EM-SIMD instruction at the head of core c's pool.
// It returns false when the instruction must retry next cycle (an MSR <VL>
// waiting for the pipeline to drain, or the manager still computing a plan).
//
// The EM-SIMD data path is shared and in-order (§4.2.2); per-core program
// order is preserved because instructions sit in the same pool as SVE
// instructions, which realizes Table 2's <SVE, EM-SIMD> and
// <EM-SIMD, EM-SIMD> rows in hardware.
func (cp *Coproc) execEMSIMD(c int, x *XInst, now uint64) bool {
	st := cp.cores[c]
	switch x.Op {
	case isa.OpMSR:
		switch x.Sys {
		case isa.SysOI:
			// A phase-changing point: store the behaviour and have
			// LaneMgr produce a fresh plan (§5). The manager is
			// busy for PlanLat cycles.
			if cp.emsimdBusyUntil > now {
				cp.probe.Signal(c, obs.SigMonitor)
				return false
			}
			cp.mgr.OnOIWrite(c, isa.UnpackOI(x.Val))
			st.lastReject = -1
			cp.emsimdBusyUntil = now + cp.cfg.PlanLat
			*cp.repartCell++
			cp.logEvent(LaneEvent{Cycle: now, Core: c, Kind: "repartition"})
			return true
		case isa.SysVL:
			if !cp.cfg.Elastic {
				// Non-elastic policies reject reconfiguration;
				// generated fixed-mode code never asks.
				cp.tbl.TryReconfigure(c, -1) // sets <status> to 0
				return true
			}
			// §4.2.2 precondition: the SIMD pipeline associated
			// with core c must be drained.
			if st.inflight.Count(now) > 0 {
				cp.probe.Signal(c, obs.SigDrain)
				if !st.draining {
					st.draining = true
					st.drainStart = now
				}
				st.drainWait++
				*cp.drainWaitCell++
				return false
			}
			// The drain window (possibly empty) closes this cycle:
			// record its length and its trace slice.
			if h := cp.drainHist; h != nil {
				start := now
				if st.draining {
					start = st.drainStart
				}
				h.Observe(now - start)
				// Only a drain that actually waited becomes a trace
				// slice: the monitor's retry loop re-executes MSR <VL>
				// with an empty pipeline every few cycles, and emitting
				// (and allocating args for) each zero-length window
				// would flood the trace from the steady-state path.
				if s := cp.probe.Sink(); s != nil && now > start {
					s.EmitComplete(c, obs.TidEMSIMD, "drain",
						start, now-start, map[string]any{"vl": int(x.Val)})
				}
			}
			st.draining = false
			cp.probe.Signal(c, obs.SigDrain)
			ok := cp.tbl.TryReconfigure(c, int(x.Val))
			if ok {
				st.lastReject = -1
				*cp.reconfCell++
				cp.logEvent(LaneEvent{Cycle: now, Core: c, Kind: "reconfigure", VL: int(x.Val)})
				if cp.cfg.PoisonOnReconfigure {
					cp.poison(c)
				}
			} else {
				*cp.rejectCell++
				// The monitor loop retries a rejected <VL> until the
				// table can grant it; log only the first rejection of
				// the streak so a long contention spin cannot flood
				// (or allocate in) the event log.
				if st.lastReject != int(x.Val) {
					st.lastReject = int(x.Val)
					cp.logEvent(LaneEvent{Cycle: now, Core: c, Kind: "reject", VL: int(x.Val)})
				}
			}
			return true
		default:
			// Writes to read-only registers are ignored (defensive;
			// the compiler never emits them).
			return true
		}
	case isa.OpMRS:
		// Ordered reads (only <status> takes this path from generated
		// code; other reads are transmitted speculatively and resolved
		// combinationally via ReadSysNow).
		if cp.respond != nil {
			cp.respond(c, x.XDst, uint64(cp.tbl.ReadRaw(c, x.Sys)), now+cp.cfg.EMSIMDLat)
		}
		return true
	default:
		panic("coproc: non-EM-SIMD instruction routed to EM-SIMD path")
	}
}

// poison fills every lane of every vector register of core c with NaN:
// freed RegBlk contents are not preserved across reconfiguration (§4.2.2),
// and poisoning makes any compiler violation of the §6.4 obligations visible
// as NaN in the workload's results.
func (cp *Coproc) poison(c int) {
	z := cp.cores[c].z
	for i := range z {
		z[i] = float32(math.NaN())
	}
}
