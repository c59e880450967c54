package coproc

import (
	"fmt"
	"sort"

	"occamy/internal/digest"
	"occamy/internal/isa"
	"occamy/internal/lanemgr"
	"occamy/internal/mem"
	"occamy/internal/roofline"
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
// The machine has one row per core (Figure 5's per-core pool, rename state
// and registers), shared by every cluster; each cluster hosts the rows of
// the cores assigned to it and walks only those. Per-core views read the
// row through its home cluster.
//
// The two-level lane hierarchy lives here: each cluster's lanemgr.Manager is
// the unchanged per-cluster partitioning pass, and lanemgr.Hier (wired
// through every Manager's AfterRepartition hook) is the global pass that
// proposes moving a tenant to a less-loaded cluster. The Complex owns the
// data-path half of a migration: it holds the proposing core at its next
// strip boundary, waits for its old cluster to drain, moves the core's row
// to the destination, and re-admits the core on the destination shard with
// a non-zero initial width (so an elastic binary's strip loop never observes
// VL=0 — the livelock guard).
type Complex struct {
	topo  Topology
	cls   []*Coproc
	rows  []*coreState // every core's row, shared by the clusters
	hier  *lanemgr.Hier
	group []int // core -> fabric position

	ComplexState
}

// ComplexState is the routing layer's checkpointed state: in-flight
// migration proposals and the fabric's bandwidth window. The core→cluster
// assignment is the lane hierarchy's (lanemgr.HierState).
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

// NewComplex builds a machine's co-processor: one instance per
// configuration in cfgs, in fabric order, over one row per machine core.
// Every configuration must name the machine-wide core count (global core IDs
// index the rows) and the same per-cluster ExeBU share. The complex wires
// the two-level hierarchy: per-cluster Managers keep their unchanged local
// pass, and the global balancing pass runs after every local repartition.
// Migration is enabled only for the elastic (Occamy) policy — fixed-width
// binaries cannot adopt a new cluster's partition.
func NewComplex(topo Topology, cfgs []Config, vecPort mem.SharedPort, data *mem.Memory, model roofline.Model, stats *sim.Stats) *Complex {
	if len(cfgs) == 0 || len(cfgs) != topo.Clusters {
		panic(fmt.Sprintf("coproc: %d cluster configurations for topology of %d", len(cfgs), topo.Clusters))
	}
	cores, per := cfgs[0].Cores, cfgs[0].ExeBUs
	for k, cfg := range cfgs {
		if cfg.Cores != cores || cfg.ExeBUs != per {
			panic(fmt.Sprintf("coproc: cluster %d shape %d cores/%d ExeBUs differs from cluster 0 (%d/%d)",
				k, cfg.Cores, cfg.ExeBUs, cores, per))
		}
	}
	if err := topo.Validate(cores, per*topo.Clusters); err != nil {
		panic(err)
	}
	rows := newRows(cfgs[0])
	cls := make([]*Coproc, len(cfgs))
	mgrs := make([]*lanemgr.Manager, len(cfgs))
	for k, cfg := range cfgs {
		cls[k] = newCoproc(cfg, rows, vecPort, data, model, stats)
		mgrs[k] = cls[k].mgr
	}
	cx := &Complex{
		topo:         topo,
		cls:          cls,
		rows:         rows,
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
	cx.rehome()
	// The clusters share the vector-cache port: their skipped retry storms
	// replay together, in tick order.
	g := &stormGroup{members: cls}
	for _, cp := range cls {
		cp.storms = g
	}
	if cfgs[0].Elastic {
		cx.hier.OnMigrate = cx.onMigrate
	}
	return cx
}

// rehome gives every cluster the rows of the cores the lane hierarchy
// assigns to it.
func (cx *Complex) rehome() {
	for _, cp := range cx.cls {
		clear(cp.home)
	}
	for c := range cx.rows {
		cx.homeOf(c).home.set(c)
	}
}

// homeOf returns core c's home cluster.
func (cx *Complex) homeOf(c int) *Coproc { return cx.cls[cx.hier.Home(c)] }

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
func (cx *Complex) PoolFull(c int) bool { return cx.homeOf(c).PoolFull(c) }

// VL returns core c's configured vector length on its home cluster.
func (cx *Complex) VL(c int) int { return cx.homeOf(c).VL(c) }

// ReadSysNow reads a system register combinationally from the home shard.
func (cx *Complex) ReadSysNow(c int, sys isa.SysReg) uint32 {
	return cx.homeOf(c).ReadSysNow(c, sys)
}

// MemInFlight counts core c's outstanding vector memory operations.
func (cx *Complex) MemInFlight(c int, now uint64) int { return cx.homeOf(c).MemInFlight(c, now) }

// StripBoundary lands pending per-cluster revocations and completes (or
// abandons) core c's pending migration. It returns false while the migration
// is waiting for the old cluster to drain — the core holds the strip
// boundary, transmitting nothing, so the drain is guaranteed to finish.
func (cx *Complex) StripBoundary(c int) bool {
	to := cx.pendMig[c]
	old := cx.homeOf(c)
	if to < 0 {
		return old.StripBoundary(c)
	}
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
	// Drained: move the row, release the old shard, re-admit on the new one
	// at the same width. The core's own monitor then adapts <VL> to the
	// destination's plan through the normal MSR protocol.
	moveRow(c, old, dst)
	oi := old.tbl.OI(c)
	old.tbl.ForceVL(c, 0)
	old.tbl.SetOI(c, isa.OIPair{})
	old.mgr.Repartition()
	cx.hier.CompleteMigration(c, to)
	dst.mgr.OnOIWrite(c, oi)
	dst.tbl.TryReconfigure(c, vl)
	return dst.StripBoundary(c)
}

// moveRow hands core c's drained row from cluster old to cluster dst. The
// row keeps its registers, counters and register-bank cut; what a row
// starts a tenancy with is reset: the park, and the rejection streak the
// lane-event log keys on. Only elastic clusters migrate, and they rename
// against per-core register files, so no shared pool's cut moves.
func moveRow(c int, old, dst *Coproc) {
	st := old.cores[c]
	old.home.clear(c)
	old.live.clear(c)
	st.parkUntil, st.lastReject = 0, -1
	dst.home.set(c)
	if dst.gated(c) {
		dst.live.set(c)
	}
}

// --- Aggregation views -----------------------------------------------------
//
// Everything below presents the clustered machine as one co-processor to
// reports, figures, traces and telemetry. A core's quantities are its row's,
// read through its home cluster; machine-wide quantities sum or average over
// the clusters.

// Quiescent reports whether core c has no queued or in-flight work.
func (cx *Complex) Quiescent(c int, now uint64) bool { return cx.homeOf(c).Quiescent(c, now) }

// LastActive returns the latest cycle core c had queued or in-flight work.
func (cx *Complex) LastActive(c int) uint64 { return cx.homeOf(c).LastActive(c) }

// QueueLen reports core c's instruction-pool occupancy.
func (cx *Complex) QueueLen(c int) int { return cx.homeOf(c).QueueLen(c) }

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

// CoreSnapshot returns core c's counters.
func (cx *Complex) CoreSnapshot(c int) Snapshot { return cx.homeOf(c).CoreSnapshot(c) }

// ComputeIssued returns core c's issued SIMD compute instructions.
func (cx *Complex) ComputeIssued(c int) uint64 { return cx.homeOf(c).ComputeIssued(c) }

// MemIssued returns core c's issued vector memory instructions.
func (cx *Complex) MemIssued(c int) uint64 { return cx.homeOf(c).MemIssued(c) }

// RenameStalls returns core c's rename-stall cycles.
func (cx *Complex) RenameStalls(c int) uint64 { return cx.homeOf(c).RenameStalls(c) }

// BusyLaneCycles returns core c's cumulative busy-lane count.
func (cx *Complex) BusyLaneCycles(c int) float64 { return cx.homeOf(c).BusyLaneCycles(c) }

// DrainWaitCycles returns core c's reconfiguration drain waits.
func (cx *Complex) DrainWaitCycles(c int) uint64 { return cx.homeOf(c).DrainWaitCycles(c) }

// LinkDrops sums refused transmissions across every cluster's faulted links.
func (cx *Complex) LinkDrops() uint64 {
	var n uint64
	for _, cp := range cx.cls {
		n += cp.LinkDrops()
	}
	return n
}

// Repartitions sums plan computations across every cluster's manager.
func (cx *Complex) Repartitions() uint64 {
	var n uint64
	for _, cp := range cx.cls {
		n += cp.mgr.Repartitions
	}
	return n
}

// BusyTimeline returns core c's average busy lanes per 1000-cycle bucket.
func (cx *Complex) BusyTimeline(c int) []float64 { return cx.homeOf(c).BusyTimeline(c) }

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
func (cx *Complex) Decision(c int) int { return cx.homeOf(c).tbl.Decision(c) }

// Z returns the functional value of lane i of register r on core c (tests).
func (cx *Complex) Z(c int, r isa.Reg, i int) float32 { return cx.homeOf(c).Z(c, r, i) }

// --- Checkpoint ------------------------------------------------------------

// ComplexCheckpoint is the co-processor's checkpoint: the routing layer's
// state, the lane hierarchy's, each cluster's and every core's row, once.
type ComplexCheckpoint struct {
	ComplexState
	hier     lanemgr.HierState
	clusters []CheckpointState // in fabric order
	rows     []rowState        // by core ID
}

// State settles every row's lastActive and returns the co-processor's live
// state in a checkpoint's layout. It shares storage with the machine: clone
// it before the machine runs on. The settle matters because lastActiveBy
// derives the in-flight part from the tracker's latest release, and a
// restore recomputes that from the entries still held.
func (cx *Complex) State() ComplexCheckpoint {
	st := ComplexCheckpoint{
		ComplexState: cx.ComplexState,
		hier:         cx.hier.HierState,
		clusters:     make([]CheckpointState, len(cx.cls)),
		rows:         make([]rowState, len(cx.rows)),
	}
	for k, cp := range cx.cls {
		st.clusters[k] = cp.state()
	}
	for c, row := range cx.rows {
		row.lastActive = row.lastActiveBy(cx.Cycles())
		st.rows[c] = row.rowState
	}
	return st
}

// RestoreCheckpoint rewinds the co-processor to a checkpoint of an
// identically built machine: the routing layer, the lane hierarchy and the
// rows, then each cluster over the home rows the restored hierarchy assigns
// it.
func (cx *Complex) RestoreCheckpoint(st ComplexCheckpoint) {
	digest.Copy(&cx.ComplexState, &st.ComplexState)
	cx.hier.Restore(st.hier)
	for c, row := range cx.rows {
		row.restore(&st.rows[c])
	}
	cx.rehome()
	for k, cp := range cx.cls {
		cp.restore(st.clusters[k])
	}
}
