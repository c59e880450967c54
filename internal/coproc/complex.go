package coproc

import (
	"fmt"
	"sort"

	"occamy/internal/digest"
	"occamy/internal/isa"
	"occamy/internal/lanemgr"
	"occamy/internal/sim"
)

// TransmitFabricBusy: the CPU→coproc fabric refused the transmission this
// cycle (the destination cluster's per-cycle acceptance bandwidth is
// exhausted); the core retries next cycle, like a full pool.
const TransmitFabricBusy TransmitStatus = 3

// Complex is the routed front of a clustered machine: K co-processor
// instances, each owning an even ExeBU shard, behind one CPU-facing port.
// It is pure glue — routing, fabric delay/bandwidth, and tenant migration —
// while every cycle of real work still happens inside the per-cluster Coproc
// instances, which tick as independent engine components.
//
// The two-level lane hierarchy lives here: each cluster's lanemgr.Manager is
// the unchanged per-cluster partitioning pass, and lanemgr.Hier (wired
// through every Manager's AfterRepartition hook) is the global pass that
// proposes moving a tenant to a less-loaded cluster. The Complex owns the
// data-path half of a migration: it holds the proposing core at its next
// strip boundary, waits for its old cluster to drain, moves the architectural
// vector state, and re-admits the core on the destination shard with a
// non-zero initial width (so an elastic binary's strip loop never observes
// VL=0 — the livelock guard).
type Complex struct {
	topo  Topology
	cores int
	cls   []*Coproc
	hier  *lanemgr.Hier
	group []int // core -> fabric position

	ComplexState
}

// ComplexState is the routing layer's checkpointed state: in-flight
// migration proposals and the fabric's bandwidth window. The core→cluster
// assignment is the lane hierarchy's (lanemgr.HierState), and the
// per-cluster instances checkpoint themselves (Coproc.State).
type ComplexState struct {
	// Fabric bandwidth accounting: per-cluster transmissions accepted in the
	// cycle bwCycle (lazily reset when the cycle advances).
	bwCycle   uint64
	bwUsed    []int
	bwRefused uint64

	// pendMig[c] is the destination cluster of core c's in-flight migration
	// (-1 none). Set when Hier.Balance's proposal is accepted; cleared when
	// the migration completes or is abandoned at a strip boundary.
	pendMig []int
}

// NewComplex builds the routed complex over per-cluster instances. Every
// cluster must be built with the machine-wide core count (global core IDs
// index every shard) and the same per-cluster ExeBU share. The complex wires
// the two-level hierarchy: per-cluster Managers keep their unchanged local
// pass, and the global balancing pass runs after every local repartition.
// Migration is enabled only for the elastic (Occamy) policy — fixed-width
// binaries cannot adopt a new cluster's partition.
func NewComplex(topo Topology, cls []*Coproc) *Complex {
	if len(cls) == 0 || len(cls) != topo.Clusters {
		panic(fmt.Sprintf("coproc: %d clusters built for topology of %d", len(cls), topo.Clusters))
	}
	cores := cls[0].cfg.Cores
	per := cls[0].cfg.ExeBUs
	for k, cp := range cls {
		if cp.cfg.Cores != cores || cp.cfg.ExeBUs != per {
			panic(fmt.Sprintf("coproc: cluster %d shape %d cores/%d ExeBUs differs from cluster 0 (%d/%d)",
				k, cp.cfg.Cores, cp.cfg.ExeBUs, cores, per))
		}
	}
	if err := topo.Validate(cores, per*topo.Clusters); err != nil {
		panic(err)
	}
	mgrs := make([]*lanemgr.Manager, len(cls))
	for k := range cls {
		mgrs[k] = cls[k].mgr
	}
	cx := &Complex{
		topo:         topo,
		cores:        cores,
		cls:          cls,
		group:        make([]int, cores),
		ComplexState: ComplexState{bwUsed: make([]int, len(cls)), pendMig: make([]int, cores)},
	}
	gw := topo.groupWidth(cores)
	for c := range cx.group {
		cx.group[c] = c / gw
	}
	for c := range cx.pendMig {
		cx.pendMig[c] = -1
	}
	cx.hier = lanemgr.NewHier(
		lanemgr.Topology{Clusters: topo.Clusters, Cores: cores, ExeBUs: per * topo.Clusters}, mgrs)
	for _, m := range mgrs {
		m.AfterRepartition = cx.hier.Balance
	}
	if cls[0].cfg.Elastic {
		cx.hier.OnMigrate = cx.onMigrate
	}
	return cx
}

// onMigrate is Hier.Balance's proposal hook: accept unless the core already
// has a migration in flight. The assignment does not change here — the move
// completes at the core's next strip boundary, once its old cluster drains.
func (cx *Complex) onMigrate(core, from, to int) bool {
	if cx.pendMig[core] >= 0 {
		return false
	}
	cx.pendMig[core] = to
	return true
}

// Home returns core c's current cluster.
func (cx *Complex) Home(c int) int { return cx.hier.Home(c) }

// Cluster returns the k-th co-processor instance.
func (cx *Complex) Cluster(k int) *Coproc { return cx.cls[k] }

// NumClusters returns the cluster count.
func (cx *Complex) NumClusters() int { return len(cx.cls) }

// Hier exposes the global balancing pass (tests and reports).
func (cx *Complex) Hier() *lanemgr.Hier { return cx.hier }

// Migrations returns how many tenant migrations have completed.
func (cx *Complex) Migrations() uint64 { return cx.hier.Migrations }

// FabricRefusals returns how many transmissions the bandwidth-limited fabric
// refused.
func (cx *Complex) FabricRefusals() uint64 { return cx.bwRefused }

// delay is the fabric traversal time from core c to cluster k.
func (cx *Complex) delay(c, k int) uint64 {
	if cx.topo.HopLatency == 0 {
		return 0
	}
	d := cx.group[c] - k
	if d < 0 {
		d = -d
	}
	return cx.topo.HopLatency * uint64(1+d)
}

// Transmit routes an instruction to its core's home cluster, charging the
// fabric: the instruction is stamped in place with its arrival cycle (the
// cluster's renamer will not look at it earlier) and counted against the
// cluster's per-cycle acceptance bandwidth.
func (cx *Complex) Transmit(x *XInst) TransmitStatus {
	k := cx.hier.Home(x.Core)
	dst := cx.cls[k]
	if dst.PoolFull(x.Core) {
		return TransmitQueueFull
	}
	now := dst.cycles
	if cx.topo.HopBandwidth > 0 {
		if cx.bwCycle != now {
			cx.bwCycle = now
			for i := range cx.bwUsed {
				cx.bwUsed[i] = 0
			}
		}
		if cx.bwUsed[k] >= cx.topo.HopBandwidth {
			cx.bwRefused++
			return TransmitFabricBusy
		}
	}
	x.notBefore = now + cx.delay(x.Core, k)
	st := dst.Transmit(x)
	if st == TransmitOK && cx.topo.HopBandwidth > 0 {
		cx.bwUsed[k]++
	}
	return st
}

// PoolFull mirrors Transmit's pool refusal for the scalar core's skip-ahead
// scan. Fabric saturation is deliberately not mirrored: the scan then reports
// the cycle live and the refusal replays for real, which is conservative and
// exact.
func (cx *Complex) PoolFull(c int) bool { return cx.cls[cx.hier.Home(c)].PoolFull(c) }

// VL returns core c's configured vector length on its home cluster.
func (cx *Complex) VL(c int) int { return cx.cls[cx.hier.Home(c)].VL(c) }

// ReadSysNow reads a system register combinationally from the home shard.
func (cx *Complex) ReadSysNow(c int, sys isa.SysReg) uint32 {
	return cx.cls[cx.hier.Home(c)].ReadSysNow(c, sys)
}

// MemInFlight counts core c's outstanding vector memory operations across
// every cluster (during a migration's drain window the backlog still lives on
// the old cluster).
func (cx *Complex) MemInFlight(c int, now uint64) int {
	n := 0
	for _, cp := range cx.cls {
		n += cp.MemInFlight(c, now)
	}
	return n
}

// StripBoundary lands pending per-cluster revocations and completes (or
// abandons) core c's pending migration. It returns false while the migration
// is waiting for the old cluster to drain — the core holds the strip
// boundary, transmitting nothing, so the drain is guaranteed to finish.
func (cx *Complex) StripBoundary(c int) bool {
	k := cx.hier.Home(c)
	to := cx.pendMig[c]
	if to < 0 {
		return cx.cls[k].StripBoundary(c)
	}
	old := cx.cls[k]
	if !old.Quiescent(c, old.cycles) {
		return false
	}
	cx.pendMig[c] = -1
	dst := cx.cls[to]
	vl := old.tbl.VL(c)
	if vl < 1 || dst.tbl.AL() < vl {
		// The tenant moves at its current width, never through a resize: a
		// VL change behind the core's back would break the §6.4 contract
		// (only the compiler's monitor sequence saves the reduction partial
		// and re-establishes invariants around a width change). If the
		// destination cannot grant that width right now, abandon the move;
		// the balance pass may propose it again once lanes free up.
		return old.StripBoundary(c)
	}
	// Drained: move the architectural vector state, release the old shard,
	// re-admit on the new one at the same width. The core's own monitor then
	// adapts <VL> to the destination's plan through the normal MSR protocol.
	dst.RestoreVecState(c, old.cores[c].z)
	oi := old.tbl.OI(c)
	old.tbl.ForceVL(c, 0)
	old.tbl.SetOI(c, isa.OIPair{})
	old.mgr.Repartition()
	cx.hier.CompleteMigration(c, to)
	dst.mgr.OnOIWrite(c, oi)
	dst.tbl.TryReconfigure(c, vl)
	return dst.StripBoundary(c)
}

// --- Aggregation views -----------------------------------------------------
//
// Everything below presents the clustered machine as one co-processor to
// reports, figures, traces and telemetry. Per-core quantities sum across
// clusters (a core's rows are inert on every cluster but its home, so the
// sums are exact even across migrations); machine-wide rates average.

// Quiescent reports whether core c has no queued or in-flight work anywhere.
func (cx *Complex) Quiescent(c int, now uint64) bool {
	for _, cp := range cx.cls {
		if !cp.Quiescent(c, now) {
			return false
		}
	}
	return true
}

// LastActive returns the latest cycle core c had work on any cluster.
func (cx *Complex) LastActive(c int) uint64 {
	var m uint64
	for _, cp := range cx.cls {
		if la := cp.LastActive(c); la > m {
			m = la
		}
	}
	return m
}

// QueueLen reports core c's total instruction-pool occupancy.
func (cx *Complex) QueueLen(c int) int {
	n := 0
	for _, cp := range cx.cls {
		n += cp.QueueLen(c)
	}
	return n
}

// Cycles returns how many cycles the machine has simulated.
func (cx *Complex) Cycles() uint64 { return cx.cls[0].Cycles() }

// Utilization returns the machine-wide SIMD_util: clusters own equal lane
// shards, so the mean of the per-cluster utilizations is exact.
func (cx *Complex) Utilization() float64 {
	s := 0.0
	for _, cp := range cx.cls {
		s += cp.Utilization()
	}
	return s / float64(len(cx.cls))
}

// CoreSnapshot sums core c's counters across clusters.
func (cx *Complex) CoreSnapshot(c int) Snapshot {
	var out Snapshot
	for _, cp := range cx.cls {
		s := cp.CoreSnapshot(c)
		out.ComputeIssued += s.ComputeIssued
		out.MemIssued += s.MemIssued
		out.RenameStalls += s.RenameStalls
		out.MSHRRetries += s.MSHRRetries
		out.DrainWait += s.DrainWait
		for len(out.ComputeByPhase) < len(s.ComputeByPhase) {
			out.ComputeByPhase = append(out.ComputeByPhase, 0)
		}
		for i, v := range s.ComputeByPhase {
			out.ComputeByPhase[i] += v
		}
	}
	return out
}

// ComputeIssued sums core c's issued SIMD compute instructions.
func (cx *Complex) ComputeIssued(c int) uint64 {
	var n uint64
	for _, cp := range cx.cls {
		n += cp.ComputeIssued(c)
	}
	return n
}

// MemIssued sums core c's issued vector memory instructions.
func (cx *Complex) MemIssued(c int) uint64 {
	var n uint64
	for _, cp := range cx.cls {
		n += cp.MemIssued(c)
	}
	return n
}

// RenameStalls sums core c's rename-stall cycles.
func (cx *Complex) RenameStalls(c int) uint64 {
	var n uint64
	for _, cp := range cx.cls {
		n += cp.RenameStalls(c)
	}
	return n
}

// BusyLaneCycles sums core c's cumulative busy-lane count.
func (cx *Complex) BusyLaneCycles(c int) float64 {
	s := 0.0
	for _, cp := range cx.cls {
		s += cp.BusyLaneCycles(c)
	}
	return s
}

// DrainWaitCycles sums core c's reconfiguration drain waits.
func (cx *Complex) DrainWaitCycles(c int) uint64 {
	var n uint64
	for _, cp := range cx.cls {
		n += cp.DrainWaitCycles(c)
	}
	return n
}

// LinkDrops sums refused transmissions across every cluster's faulted links.
func (cx *Complex) LinkDrops() uint64 {
	var n uint64
	for _, cp := range cx.cls {
		n += cp.LinkDrops()
	}
	return n
}

// LanesPerGranule returns the machine's lane multiplier (uniform across
// clusters).
func (cx *Complex) LanesPerGranule() int { return LanesPerGranule }

// Repartitions sums plan computations across every cluster's manager.
func (cx *Complex) Repartitions() uint64 {
	var n uint64
	for _, cp := range cx.cls {
		n += cp.mgr.Repartitions
	}
	return n
}

// BusyTimeline merges core c's busy-lane timeline across clusters into one
// machine-wide view (report time only; allocates). Every cluster records
// every cycle, so bucket sums add and the sample counts agree.
func (cx *Complex) BusyTimeline(c int) *sim.Timeline {
	ts := make([]*sim.Timeline, len(cx.cls))
	for k, cp := range cx.cls {
		ts[k] = cp.BusyTimeline(c)
	}
	return sim.SumTimelines(ts)
}

// LaneEvents merges every cluster's lane-management log in cycle order.
func (cx *Complex) LaneEvents() []LaneEvent {
	var out []LaneEvent
	for _, cp := range cx.cls {
		out = append(out, cp.LaneEvents()...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Cycle < out[b].Cycle })
	return out
}

// AL sums the shards' allocatable-lane counters — the machine-wide headroom
// gauge (signed: a shard in transient over-allocation subtracts).
func (cx *Complex) AL() int {
	n := 0
	for _, cp := range cx.cls {
		n += cp.tbl.AL()
	}
	return n
}

// Usable sums the shards' surviving ExeBUs.
func (cx *Complex) Usable() int {
	n := 0
	for _, cp := range cx.cls {
		n += cp.tbl.Usable()
	}
	return n
}

// Failed sums the shards' failed ExeBUs.
func (cx *Complex) Failed() int {
	n := 0
	for _, cp := range cx.cls {
		n += cp.tbl.Failed()
	}
	return n
}

// Total sums the shards' ExeBU counts (the machine-wide array size).
func (cx *Complex) Total() int {
	n := 0
	for _, cp := range cx.cls {
		n += cp.tbl.Total()
	}
	return n
}

// Decision returns core c's planner decision on its home shard.
func (cx *Complex) Decision(c int) int {
	return cx.cls[cx.hier.Home(c)].tbl.Decision(c)
}

// Z returns the functional value of lane i of register r on core c's home
// cluster (tests).
func (cx *Complex) Z(c int, r isa.Reg, i int) float32 {
	return cx.cls[cx.hier.Home(c)].Z(c, r, i)
}

// --- Checkpoint ------------------------------------------------------------

// ComplexCheckpoint is the routing layer's checkpoint: its own state and the
// lane hierarchy's.
type ComplexCheckpoint struct {
	ComplexState
	hier lanemgr.HierState
}

// State returns the routing layer's live state in a checkpoint's layout,
// sharing storage with the complex.
func (cx *Complex) State() ComplexCheckpoint {
	return ComplexCheckpoint{ComplexState: cx.ComplexState, hier: cx.hier.HierState}
}

// RestoreCheckpoint rewinds the routing layer.
func (cx *Complex) RestoreCheckpoint(st ComplexCheckpoint) {
	digest.Copy(&cx.ComplexState, &st.ComplexState)
	cx.hier.Restore(st.hier)
}
