package arch

import (
	"fmt"
	"sort"
	"strings"

	"occamy/internal/coproc"
	"occamy/internal/fault"
	"occamy/internal/obs"
	"occamy/internal/telemetry"
)

// Recovery records how the system reacted to one injected fault: the cycle it
// fired and the cycle the architecture finished adapting to it. For
// architectures that react combinationally (issue gates, register cuts,
// bandwidth derating) Done == At; for the lane-repartitioning reactions
// (Occamy's elastic re-plan, VLS's drain-gated revocation) Done - At is the
// paper-relevant "time to repartition".
type Recovery struct {
	Fault fault.Fault `json:"fault"`
	At    uint64      `json:"at"`
	Done  uint64      `json:"done"`
	// Pending marks a recovery the run ended before completing (e.g. the
	// victim livelocked and the watchdog fired first).
	Pending bool `json:"pending,omitempty"`
}

// TimeToRepartition is Done - At (0 while pending).
func (r Recovery) TimeToRepartition() uint64 {
	if r.Pending {
		return 0
	}
	return r.Done - r.At
}

// faultCtl is the architecture layer's fault.Handler: it translates fault
// events into the reaction each Figure 1 architecture is capable of.
//
//   - Occamy excludes the units from the ResourceTbl and repartitions; the
//     elastic binaries' monitors observe the fresh <decision> values and
//     reconfigure themselves at the next strip boundary, so the machine
//     converges onto the survivors with no special-case code.
//   - VLS has no reconfiguration protocol, so the controller revokes the
//     victim core's dead granules by forcing its VL down at the core's next
//     strip boundary (in-flight work drains at the old width, §4.2.2). The
//     VL is never force-grown back after a transient repairs: fixed-mode
//     binaries carry no safe-point protocol, so a mid-kernel width increase
//     would resurrect stale loop invariants. A victim whose whole partition
//     died reads zero lanes at its next strip and stalls — the watchdog
//     reports it (the honest Figure 1(c) outcome).
//   - Private cannot move work between its hard-partitioned halves at all;
//     a victim core limps along on its surviving units, modeled as an issue
//     gate of period ceil(2*half/(half-f)) — strictly worse than VLS's
//     proportional loss because the fixed-width ISA must crack every
//     full-width op over the survivors. Losing the whole half is fatal for
//     that core.
//   - FTS time-shares the full array, so any dead unit degrades every core:
//     a shared issue gate of period ceil(2*N/(N-f)).
//
// RegBank, Bandwidth and XmitLink faults are architecture-independent and map
// directly onto the co-processor / memory hooks.
type faultCtl struct {
	sys *System
	n   int
	ctlState
}

// ctlState is the fault controller's checkpointed state.
type ctlState struct {
	// perCoreFailed assigns failed ExeBUs to cores' static partitions
	// (round-robin over the per-cluster cursor) for the architectures whose
	// loss is per-core (Private, VLS). The assignment is a modeling
	// abstraction — which physical unit died is irrelevant, only how many
	// per partition — and it walks only the cores built onto the failed
	// cluster, since a shard's dead units cannot shrink a partition living
	// on another shard.
	perCoreFailed []int
	cursors       []int // one round-robin cursor per cluster
	recs          []Recovery
	open          []int // indices into recs of recoveries not yet Done
}

func newFaultCtl(sys *System) *faultCtl {
	n := len(sys.Cores)
	return &faultCtl{sys: sys, n: n, ctlState: ctlState{
		perCoreFailed: make([]int, n),
		cursors:       make([]int, len(sys.Clusters)),
	}}
}

// clusterOf resolves a fault's target cluster: an explicit clN names that
// shard, AnyCluster defaults to cluster 0 (deterministic, and the flat
// machine's only choice).
func (ctl *faultCtl) clusterOf(f fault.Fault) int {
	if f.Cluster == fault.AnyCluster {
		return 0
	}
	return f.Cluster
}

// members returns the half-open core-ID range built onto cluster k. Fault
// accounting uses the build-time grouping, not the migrated assignment: the
// static per-core loss model applies to Private/VLS, which never migrate.
func (ctl *faultCtl) members(k int) (lo, hi int) {
	g := ctl.n / len(ctl.sys.Clusters)
	return k * g, (k + 1) * g
}

// Recoveries returns the reaction log so far.
func (ctl *faultCtl) Recoveries() []Recovery {
	out := make([]Recovery, len(ctl.recs))
	copy(out, ctl.recs)
	for _, i := range ctl.open {
		out[i].Pending = true
	}
	return out
}

// Apply implements fault.Handler.
func (ctl *faultCtl) Apply(f fault.Fault, now uint64) {
	rec := Recovery{Fault: f, At: now, Done: now}
	switch f.Kind {
	case fault.ExeBU:
		k := ctl.clusterOf(f)
		cp := ctl.sys.Clusters[k]
		actual := cp.Tbl().Fail(f.Count)
		lo, hi := ctl.members(k)
		for i := 0; i < actual; i++ {
			ctl.perCoreFailed[lo+ctl.cursors[k]]++
			ctl.cursors[k] = (ctl.cursors[k] + 1) % (hi - lo)
		}
		ctl.react(k)
		switch ctl.sys.Kind {
		case Occamy, VLS:
			// Completion is detected by Poll (lane plans settle later).
			ctl.open = append(ctl.open, len(ctl.recs))
		}
	case fault.RegBank:
		// The core's physical register file travels with the core, not the
		// fabric: cut its pool on every shard so the loss follows it
		// through migrations (foreign rows rename nothing, so only the
		// home cut is ever observable).
		for _, cp := range ctl.sys.Clusters {
			cp.CutRegs(f.Core, f.Count)
		}
	case fault.Bandwidth:
		ctl.bwTarget(f.Level).SetBWFactor(f.Factor)
	case fault.XmitLink:
		if f.Cluster == fault.AnyCluster {
			// The core's dispatch path is faulty wherever it transmits.
			for _, cp := range ctl.sys.Clusters {
				cp.SetLinkFault(f.Core, f.Delay, now)
			}
		} else {
			ctl.sys.Clusters[f.Cluster].SetLinkFault(f.Core, f.Delay, now)
		}
	}
	ctl.recs = append(ctl.recs, rec)
	ctl.sys.Tele.Emit(now, telemetry.EvFaultApply, f.Core, uint64(f.Count), f.String())
}

// Revert implements fault.Handler (end of a transient window).
func (ctl *faultCtl) Revert(f fault.Fault, now uint64) {
	switch f.Kind {
	case fault.ExeBU:
		k := ctl.clusterOf(f)
		cp := ctl.sys.Clusters[k]
		actual := cp.Tbl().Repair(f.Count)
		lo, hi := ctl.members(k)
		for i := 0; i < actual; i++ {
			ctl.cursors[k] = (ctl.cursors[k] - 1 + (hi - lo)) % (hi - lo)
			ctl.perCoreFailed[lo+ctl.cursors[k]]--
		}
		ctl.react(k)
	case fault.RegBank:
		for _, cp := range ctl.sys.Clusters {
			cp.RestoreRegs(f.Core, f.Count)
		}
	case fault.Bandwidth:
		ctl.bwTarget(f.Level).SetBWFactor(1)
	case fault.XmitLink:
		if f.Cluster == fault.AnyCluster {
			for _, cp := range ctl.sys.Clusters {
				cp.ClearLinkFault(f.Core)
			}
		} else {
			ctl.sys.Clusters[f.Cluster].ClearLinkFault(f.Core)
		}
	}
	ctl.sys.Tele.Emit(now, telemetry.EvFaultRevert, f.Core, uint64(f.Count), "")
}

// react propagates cluster k's failed-unit census into each architecture's
// control state. Called after every Fail/Repair on that shard.
func (ctl *faultCtl) react(k int) {
	cp := ctl.sys.Clusters[k]
	tbl := cp.Tbl()
	lo, hi := ctl.members(k)
	switch ctl.sys.Kind {
	case Occamy:
		// Fresh plan over the survivors; elastic monitors do the rest.
		cp.Manager().Repartition()
	case VLS:
		// Schedule strip-boundary revocations down to the surviving share
		// of each static partition; SetForcedVL cancels instead of growing,
		// so a transient repair never force-grows a fixed-mode binary.
		for c := lo; c < hi; c++ {
			want := ctl.sys.StaticVLs[c] - ctl.perCoreFailed[c]
			if want < 0 {
				want = 0
			}
			cp.SetForcedVL(c, want)
		}
	case Private:
		for c := lo; c < hi; c++ {
			half := ctl.sys.StaticVLs[c]
			cp.SetIssueGate(c, gatePeriod(half, ctl.perCoreFailed[c]))
		}
	case FTS:
		// Only this shard's tenants time-share its dead units.
		cp.SetSharedGate(gatePeriod(tbl.Total(), tbl.Failed()))
	}
}

// gatePeriod returns the issue-gate period modeling a fixed-width data path
// running on width-f survivors: issue every ceil(2w/(w-f))-th cycle, the
// factor 2 charging the cracking/sequencing overhead a non-elastic machine
// pays to route fixed-width ops around dead units. 0 failures lifts the gate;
// losing everything is fatal.
func gatePeriod(width, failed int) uint64 {
	switch {
	case failed <= 0 || width <= 0:
		return 0
	case failed >= width:
		return coproc.GateDead
	default:
		alive := width - failed
		return uint64((2*width + alive - 1) / alive)
	}
}

// Poll implements fault.Handler: it runs every cycle while the injector is
// registered. The reactions themselves land elsewhere (the manager's
// repartition floor, the strip-boundary revocations in the co-processor);
// Poll only watches for the lane plan to settle so recoveries can be
// timestamped.
func (ctl *faultCtl) Poll(now uint64) {
	ctl.closeRecoveries(now)
}

// PollQuiescent implements fault.SleepHandler: with no recovery in flight,
// closeRecoveries returns immediately and Poll is a pure no-op, so the
// injector may declare quiescence between scheduled events. Recoveries only
// open inside Apply (a ticked cycle) and only close inside Poll (also a
// ticked cycle: an open recovery keeps the injector live every cycle).
func (ctl *faultCtl) PollQuiescent() bool { return len(ctl.open) == 0 }

// closeRecoveries marks open lane-repartition recoveries done once the lane
// plan has settled onto the survivors.
func (ctl *faultCtl) closeRecoveries(now uint64) {
	if len(ctl.open) == 0 {
		return
	}
	settled := false
	switch ctl.sys.Kind {
	case Occamy:
		// Every shard's plan must fit its survivors (tenants counted on
		// their current home, so a mid-migration machine is not "settled"
		// early).
		settled = true
		for k, cp := range ctl.sys.Clusters {
			tbl := cp.Tbl()
			sum, active := 0, 0
			for c, core := range ctl.sys.Cores {
				sum += tbl.VL(c)
				if !core.Halted() && ctl.sys.Cplx.Home(c) == k {
					active++
				}
			}
			target := tbl.Usable()
			if active > target {
				// The repartition floor grants one granule per active core
				// even when fewer survive (time-shared); allow that much.
				target = active
			}
			if sum > target {
				settled = false
				break
			}
		}
	case VLS:
		settled = true
	vls:
		for _, cp := range ctl.sys.Clusters {
			for c := range ctl.sys.Cores {
				if cp.ForcedVLPending(c) {
					settled = false
					break vls
				}
			}
		}
	}
	if !settled {
		return
	}
	for _, i := range ctl.open {
		ctl.recs[i].Done = now
		ctl.sys.Tele.Emit(now, telemetry.EvRecoveryDone,
			ctl.recs[i].Fault.Core, now-ctl.recs[i].At, "")
	}
	ctl.open = ctl.open[:0]
}

func (ctl *faultCtl) bwTarget(level string) interface{ SetBWFactor(float64) } {
	switch level {
	case "l2":
		return ctl.sys.Hier.L2
	case "vec":
		return ctl.sys.Hier.VecCache
	default:
		return ctl.sys.Hier.DRAM
	}
}

// DiagnosticDump is the structured "what was the machine doing" snapshot the
// watchdog and cycle-budget paths emit instead of a bare error: per-core
// scalar and co-processor pipeline state, the lane table, top-down cycle
// attribution when the run was observed, and the fault log.
type DiagnosticDump struct {
	Arch   string `json:"arch"`
	Sched  string `json:"sched"`
	Cycle  uint64 `json:"cycle"`
	Reason string `json:"reason"`

	Cores []CoreDiag `json:"cores"`
	// Lanes is the machine-wide lane-table view (sums across shards); on a
	// clustered machine ClusterLanes breaks it down per shard.
	Lanes        LaneDiag   `json:"lanes"`
	ClusterLanes []LaneDiag `json:"cluster_lanes,omitempty"`
	// Attribution maps obs bucket names to charged cycles per core; nil
	// when the run was not observed.
	Attribution []map[string]uint64 `json:"attribution,omitempty"`
	Recoveries  []Recovery          `json:"recoveries,omitempty"`
	LinkDrops   uint64              `json:"link_drops,omitempty"`
}

// CoreDiag is one core's slice of the dump.
type CoreDiag struct {
	ID     int                 `json:"id"`
	PC     int                 `json:"pc"`
	Halted bool                `json:"halted"`
	Parked bool                `json:"parked"`
	Insts  uint64              `json:"insts"`
	Pipe   coproc.PipeSnapshot `json:"pipe"`
}

// LaneDiag is the ResourceTbl's slice of the dump.
type LaneDiag struct {
	Total     int   `json:"total"`
	Failed    int   `json:"failed"`
	Usable    int   `json:"usable"`
	AL        int   `json:"al"`
	VLs       []int `json:"vls"`
	Decisions []int `json:"decisions"`
}

// Diagnose snapshots the machine state for a failed run. err is the engine
// error that ended it (watchdog stall or cycle-budget exhaustion).
func (s *System) Diagnose(err error) *DiagnosticDump {
	now := s.Engine.Cycle()
	d := &DiagnosticDump{
		Arch: s.Kind.String(), Sched: s.Sched.Name, Cycle: now, Reason: err.Error(),
	}
	d.Lanes = LaneDiag{Total: s.Cplx.Total(), Failed: s.Cplx.Failed(), Usable: s.Cplx.Usable(), AL: s.Cplx.AL()}
	for c, core := range s.Cores {
		home := s.Clusters[s.Cplx.Home(c)]
		d.Lanes.VLs = append(d.Lanes.VLs, s.Cplx.VL(c))
		d.Lanes.Decisions = append(d.Lanes.Decisions, s.Cplx.Decision(c))
		d.Cores = append(d.Cores, CoreDiag{
			ID: c, PC: core.PC(), Halted: core.Halted(), Parked: core.Parked(),
			Insts: core.Progress(), Pipe: home.PipelineSnapshot(c, now),
		})
	}
	if len(s.Clusters) > 1 {
		for _, cp := range s.Clusters {
			tbl := cp.Tbl()
			d.ClusterLanes = append(d.ClusterLanes, LaneDiag{
				Total: tbl.Total(), Failed: tbl.Failed(), Usable: tbl.Usable(), AL: tbl.AL(),
			})
		}
	}
	if p := s.Probe; p != nil {
		for c := range s.Cores {
			a := p.CoreAttribution(c)
			m := make(map[string]uint64)
			for b := 0; b < obs.NumBuckets; b++ {
				if a.Buckets[b] > 0 {
					m[obs.Bucket(b).String()] = a.Buckets[b]
				}
			}
			d.Attribution = append(d.Attribution, m)
		}
	}
	if s.faults != nil {
		d.Recoveries = s.faults.Recoveries()
	}
	d.LinkDrops = s.Cplx.LinkDrops()
	s.Tele.Emit(now, telemetry.EvWatchdog, -1, 0, d.Reason)
	return d
}

// String renders the dump for terminal output.
func (d *DiagnosticDump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== diagnostic dump: %s / %s at cycle %d ===\n", d.Arch, d.Sched, d.Cycle)
	fmt.Fprintf(&b, "reason: %s\n", d.Reason)
	fmt.Fprintf(&b, "lanes: total=%d failed=%d usable=%d AL=%d vl=%v decision=%v\n",
		d.Lanes.Total, d.Lanes.Failed, d.Lanes.Usable, d.Lanes.AL, d.Lanes.VLs, d.Lanes.Decisions)
	for k, cl := range d.ClusterLanes {
		fmt.Fprintf(&b, "  cluster%d: total=%d failed=%d usable=%d AL=%d\n",
			k, cl.Total, cl.Failed, cl.Usable, cl.AL)
	}
	for _, c := range d.Cores {
		fmt.Fprintf(&b, "core%d: pc=%d halted=%v parked=%v insts=%d\n",
			c.ID, c.PC, c.Halted, c.Parked, c.Insts)
		p := c.Pipe
		fmt.Fprintf(&b, "  coproc: queue=%d renamed=%d head=%s inflight=%d lhq=%d stq=%d pool=%d",
			p.QueueLen, p.Renamed, p.HeadOp, p.Inflight, p.LHQ, p.STQ, p.PoolHeld)
		fmt.Fprintf(&b, " vl=%d decision=%d drainWait=%d lastActive=%d\n",
			p.VL, p.Decision, p.DrainWait, p.LastActive)
		if c.ID < len(d.Attribution) {
			b.WriteString("  topdown:")
			m := d.Attribution[c.ID]
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%d", k, m[k])
			}
			b.WriteByte('\n')
		}
	}
	for _, r := range d.Recoveries {
		if r.Pending {
			fmt.Fprintf(&b, "fault %s: applied at %d, recovery PENDING\n", r.Fault, r.At)
		} else {
			fmt.Fprintf(&b, "fault %s: applied at %d, recovered in %d cycles\n",
				r.Fault, r.At, r.TimeToRepartition())
		}
	}
	if d.LinkDrops > 0 {
		fmt.Fprintf(&b, "dropped transmissions: %d\n", d.LinkDrops)
	}
	b.WriteString("===")
	return b.String()
}

// DiagError wraps the engine error that ended a run together with the
// machine-state dump taken at that moment. errors.Is/As see through it to the
// underlying sim.StallError / sim.BudgetError.
type DiagError struct {
	Dump *DiagnosticDump
	Err  error
}

func (e *DiagError) Error() string { return e.Err.Error() }
func (e *DiagError) Unwrap() error { return e.Err }
