package lanemgr

import (
	"fmt"

	"occamy/internal/digest"
)

// Hier is the global level of the two-level lane hierarchy: one Manager per
// co-processor cluster (each running the unchanged §5.2 per-cluster pass
// over its own ExeBU shard) under a balancing pass that owns the core→cluster
// assignment and proposes tenant migrations when the clusters' loads diverge.
//
// Balance is deterministic and O(clusters + cores), and it only *proposes* a
// migration: moving a tenant's architectural vector state between clusters
// must happen at a drained strip boundary, so the proposal is surfaced
// through OnMigrate and completed later (CompleteMigration) by whoever owns
// the data path — internal/coproc's Complex in the simulator.
type Hier struct {
	Topo Topology
	// Mgrs holds one per-cluster Manager, indexed by cluster.
	Mgrs []*Manager
	HierState
	// Threshold is the minimum active-tenant imbalance (max cluster minus
	// min cluster) that justifies a migration; below it the clusters are
	// considered balanced. DefaultThreshold when zero-built via NewHier.
	Threshold int
	// OnMigrate, when non-nil, receives a migration proposal (core, from,
	// to) and reports whether it was accepted. A rejection (e.g. the core
	// already has a migration in flight) leaves the assignment untouched;
	// Balance does not retry within the same pass.
	OnMigrate func(core, from, to int) bool

	active    []int // per-cluster active-tenant scratch (no alloc in Balance)
	balancing bool  // re-entrancy guard: Balance can trigger repartitions
}

// DefaultThreshold is the migration hysteresis: one tenant of imbalance is
// tolerated (a migration costs a full drain), two is acted on.
const DefaultThreshold = 2

// NewHier builds the hierarchy over per-cluster managers. Every core starts
// on its natural group cluster: core c is assigned to cluster
// c / (Cores/Clusters) so contiguous core groups share a cluster.
func NewHier(topo Topology, mgrs []*Manager) *Hier {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	if len(mgrs) != topo.Clusters {
		panic(fmt.Sprintf("lanemgr: %d managers for %d clusters", len(mgrs), topo.Clusters))
	}
	h := &Hier{
		Topo:      topo,
		Mgrs:      mgrs,
		HierState: HierState{Assign: make([]int, topo.Cores)},
		Threshold: DefaultThreshold,
		active:    make([]int, topo.Clusters),
	}
	group := topo.Cores / topo.Clusters
	if group < 1 {
		group = 1
	}
	for c := range h.Assign {
		k := c / group
		if k >= topo.Clusters {
			k = topo.Clusters - 1
		}
		h.Assign[c] = k
	}
	return h
}

// Home returns core c's current cluster.
func (h *Hier) Home(c int) int { return h.Assign[c] }

// Repartition runs the per-cluster pass on cluster k (the two-level split of
// the old flat Manager.Repartition: this level, then Balance via the hook).
func (h *Hier) Repartition(k int) { h.Mgrs[k].Repartition() }

// Balance is the global pass. It counts active tenants (cores with a nonzero
// <OI> on their home shard) per cluster, compares cluster loads as
// active/usable fractions (integer cross-multiplication — exact, and robust
// to shards degraded by faults), and when the most and least loaded clusters
// differ by at least Threshold tenants it proposes migrating the source
// cluster's smallest-decision tenant to the destination. Deterministic: ties
// break toward the lowest cluster / core index.
func (h *Hier) Balance() {
	if h.balancing || h.Topo.Clusters < 2 || h.OnMigrate == nil {
		return
	}
	h.balancing = true
	defer func() { h.balancing = false }()

	for k := range h.active {
		h.active[k] = 0
	}
	for c, k := range h.Assign {
		if !h.Mgrs[k].Tbl.OI(c).IsZero() {
			h.active[k]++
		}
	}
	src, dst := 0, 0
	for k := 1; k < h.Topo.Clusters; k++ {
		// load(k) > load(src)  <=>  active[k]*usable[src] > active[src]*usable[k]
		if h.active[k]*h.Mgrs[src].Tbl.Usable() > h.active[src]*h.Mgrs[k].Tbl.Usable() {
			src = k
		}
		if h.active[k]*h.Mgrs[dst].Tbl.Usable() < h.active[dst]*h.Mgrs[k].Tbl.Usable() {
			dst = k
		}
	}
	if src == dst || h.active[src]-h.active[dst] < h.Threshold {
		return
	}
	// Victim: the source cluster's active tenant with the smallest
	// <decision> — the cheapest partition to uproot — lowest core index on
	// ties.
	victim, best := -1, 0
	tbl := h.Mgrs[src].Tbl
	for c, k := range h.Assign {
		if k != src || tbl.OI(c).IsZero() {
			continue
		}
		if d := tbl.Decision(c); victim < 0 || d < best {
			victim, best = c, d
		}
	}
	if victim < 0 {
		return
	}
	h.OnMigrate(victim, src, dst)
}

// CompleteMigration records that core c now lives on cluster `to`: the data
// path has drained the old allocation and moved the vector state. The caller
// is responsible for the shard bookkeeping (release on the old shard,
// re-admission on the new one).
func (h *Hier) CompleteMigration(c, to int) {
	h.Assign[c] = to
	h.Migrations++
}

// HierState is the hierarchy's checkpointed state: the assignment and the
// migration counter (the shards snapshot themselves through their tables).
type HierState struct {
	// Assign maps each core to its home cluster.
	Assign []int
	// Migrations counts completed tenant migrations.
	Migrations uint64
}

// Snapshot captures the hierarchy's global state.
func (h *Hier) Snapshot() HierState { return digest.Clone(&h.HierState) }

// Restore rewinds to a Snapshot taken on a same-shaped hierarchy.
func (h *Hier) Restore(st HierState) { digest.Copy(&h.HierState, &st) }
