// Package lanemgr implements the hardware SIMD lane manager of §5: the
// on-chip resource table holding the five EM-SIMD registers per core
// (Table 1, §4.2.1) and the greedy, roofline-guided lane-partitioning
// algorithm of §5.2 that runs whenever a workload writes <OI> at a
// phase-changing point.
package lanemgr

import (
	"fmt"

	"occamy/internal/digest"
	"occamy/internal/isa"
)

// ResourceTbl is the (4*C+1)-register table of §4.2.1: per core the four
// dedicated registers <OI>, <decision>, <VL>, <status>, plus one shared <AL>
// register. Registers are stored raw (32-bit) exactly as the MSR/MRS data
// path sees them; typed accessors decode them.
type ResourceTbl struct {
	total int // N: number of ExeBUs (128-bit granules)
	TblState
}

// TblState is the table's checkpointed state: the registers and the fault
// exclusions.
type TblState struct {
	failed   int // units excluded from allocation by fault injection
	oi       []uint32
	decision []uint32
	vl       []uint32
	status   []uint32
}

// Topology describes how the machine's ExeBUs are sharded across
// co-processor clusters. ExeBUs is the machine-wide total; each cluster's
// resource table manages ExeBUs/Clusters of them. The flat single-table
// machine is Topology{Clusters: 1, Cores: C, ExeBUs: N}.
type Topology struct {
	// Clusters is the number of co-processor clusters (>= 1).
	Clusters int
	// Cores is the number of CPU cores the table serves. Every shard keeps a
	// row per global core ID — rows for cores homed on other clusters stay
	// inert — so no ID translation exists anywhere in the data path.
	Cores int
	// ExeBUs is the machine-wide ExeBU count, divided evenly over clusters.
	ExeBUs int
}

// Validate checks the shard arithmetic and returns an actionable error.
func (t Topology) Validate() error {
	if t.Clusters < 1 {
		return fmt.Errorf("lanemgr: topology needs at least 1 cluster, got %d", t.Clusters)
	}
	if t.Cores < 1 {
		return fmt.Errorf("lanemgr: topology needs at least 1 core, got %d", t.Cores)
	}
	if t.ExeBUs < t.Clusters {
		return fmt.Errorf("lanemgr: %d ExeBUs cannot cover %d clusters (need >= 1 each)", t.ExeBUs, t.Clusters)
	}
	if t.ExeBUs%t.Clusters != 0 {
		return fmt.Errorf("lanemgr: %d ExeBUs do not shard evenly over %d clusters", t.ExeBUs, t.Clusters)
	}
	return nil
}

// PerCluster returns the ExeBU budget of one shard.
func (t Topology) PerCluster() int { return t.ExeBUs / t.Clusters }

// NewResourceTbl returns one cluster shard of topo: a table with a row per
// CPU core sharing the cluster's ExeBUs/Clusters execution units. All lanes
// start free: every <VL> is 0 and <AL> = the shard budget.
func NewResourceTbl(topo Topology) *ResourceTbl {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	return &ResourceTbl{total: topo.PerCluster(), TblState: TblState{
		oi:       make([]uint32, topo.Cores),
		decision: make([]uint32, topo.Cores),
		vl:       make([]uint32, topo.Cores),
		status:   make([]uint32, topo.Cores),
	}}
}

// Cores returns the number of CPU cores served.
func (t *ResourceTbl) Cores() int { return len(t.oi) }

// Total returns N, the number of ExeBUs being shared.
func (t *ResourceTbl) Total() int { return t.total }

// Fail marks n more ExeBUs failed, clamped to the units still usable. It
// returns the number actually marked. Failed units are excluded from <AL>
// and from TryReconfigure's feasibility check; already-allocated lanes are
// not revoked here — detection and drain-gated revocation are the fault
// controller's job.
func (t *ResourceTbl) Fail(n int) int {
	if n > t.total-t.failed {
		n = t.total - t.failed
	}
	if n < 0 {
		n = 0
	}
	t.failed += n
	return n
}

// Repair returns n failed ExeBUs to service (clamped), and reports how many
// actually came back.
func (t *ResourceTbl) Repair(n int) int {
	if n > t.failed {
		n = t.failed
	}
	if n < 0 {
		n = 0
	}
	t.failed -= n
	return n
}

// Failed returns the number of ExeBUs currently excluded by faults.
func (t *ResourceTbl) Failed() int { return t.failed }

// Usable returns the number of ExeBUs available for allocation: Total minus
// the failed units.
func (t *ResourceTbl) Usable() int { return t.total - t.failed }

// AL returns the shared <AL> register: the number of free, usable ExeBUs.
// Immediately after a fault the allocations can transiently exceed the
// usable pool, making AL negative until the over-allocated cores drain and
// shrink; the signed result keeps that arithmetic exact (the raw MRS view
// saturates at zero, as the hardware register would).
func (t *ResourceTbl) AL() int {
	used := 0
	for _, v := range t.vl {
		used += int(v)
	}
	return t.Usable() - used
}

// OI returns core c's decoded <OI> register.
func (t *ResourceTbl) OI(c int) isa.OIPair { return isa.UnpackOI(t.oi[c]) }

// SetOI writes core c's <OI> register.
func (t *ResourceTbl) SetOI(c int, p isa.OIPair) { t.oi[c] = isa.PackOI(p) }

// Decision returns core c's <decision> register (suggested VL in granules).
func (t *ResourceTbl) Decision(c int) int { return int(t.decision[c]) }

// SetDecision writes core c's <decision> register.
func (t *ResourceTbl) SetDecision(c, vl int) { t.decision[c] = uint32(vl) }

// VL returns core c's configured vector length in granules.
func (t *ResourceTbl) VL(c int) int { return int(t.vl[c]) }

// Status returns core c's <status> register: true if the last <VL> write
// succeeded.
func (t *ResourceTbl) Status(c int) bool { return t.status[c] == 1 }

// ReadRaw reads a register as the MRS data path does.
func (t *ResourceTbl) ReadRaw(c int, r isa.SysReg) uint32 {
	switch r {
	case isa.SysOI:
		return t.oi[c]
	case isa.SysDecision:
		return t.decision[c]
	case isa.SysVL:
		return t.vl[c]
	case isa.SysStatus:
		return t.status[c]
	case isa.SysAL:
		if al := t.AL(); al > 0 {
			return uint32(al)
		}
		return 0
	default:
		return 0
	}
}

// TryReconfigure implements the atomic register update of §4.2.2 for a
// successfully drained MSR <VL>,l: it succeeds iff c.<VL> + <AL> >= l, in
// which case it moves lanes between core c and the free pool and sets
// <status> to 1; otherwise it leaves the allocation unchanged and sets
// <status> to 0. The caller (the co-processor's EM-SIMD data path) is
// responsible for the pipeline-drain precondition.
// A shrink (l <= current <VL>) always succeeds — releasing lanes can never
// violate capacity — which is what lets over-allocated cores drain down one
// by one after a fault has shrunk the usable pool below the outstanding
// allocations (a grow would fail there, because <AL> is negative).
func (t *ResourceTbl) TryReconfigure(c, l int) bool {
	if l < 0 || l > t.Usable() {
		t.status[c] = 0
		return false
	}
	if l > t.VL(c) && t.VL(c)+t.AL() < l {
		t.status[c] = 0
		return false
	}
	t.vl[c] = uint32(l)
	t.status[c] = 1
	return true
}

// ForceVL is the fault controller's drain-gated revocation path: it rewrites
// core c's <VL> directly, bypassing the feasibility check (shrinks only —
// grows must go through TryReconfigure so the EM-SIMD protocol's invariant
// re-emission runs). The caller is responsible for the §4.2.2 drained-
// pipeline precondition.
func (t *ResourceTbl) ForceVL(c, l int) {
	if l < 0 || l > t.VL(c) {
		return
	}
	t.vl[c] = uint32(l)
}

// RestoreVL re-installs a saved allocation on core c during an OS context
// restore, bypassing the feasibility check. It exists for one situation: the
// usable pool shrank below the task's saved <VL> while it was descheduled,
// so TryReconfigure can never grant it — yet the task must resume under the
// exact VL it was preempted with (a mid-strip VL change corrupts the strip's
// bookkeeping). The resulting negative <AL> is the same transient
// over-allocation that follows an in-flight fault; the task's partition
// monitor shrinks to the planner's decision at its next strip boundary.
func (t *ResourceTbl) RestoreVL(c, l int) {
	if l < 0 {
		return
	}
	t.vl[c] = uint32(l)
	t.status[c] = 1
}

// Restore rewinds the table to a Snapshot taken on a same-shaped instance.
func (t *ResourceTbl) Restore(st TblState) { digest.Copy(&t.TblState, &st) }

// ActiveOIs returns the decoded <OI> of every core; cores not executing a
// phase hold the zero pair.
func (t *ResourceTbl) ActiveOIs() []isa.OIPair {
	return t.ActiveOIsInto(make([]isa.OIPair, 0, t.Cores()))
}

// ActiveOIsInto appends the decoded <OI> of every core to dst and returns it.
// Repartitioning runs on every <OI> write — a context-switch-rate event under
// preemptive scheduling — so the manager reuses one scratch buffer instead of
// allocating per plan.
func (t *ResourceTbl) ActiveOIsInto(dst []isa.OIPair) []isa.OIPair {
	for c := 0; c < t.Cores(); c++ {
		dst = append(dst, t.OI(c))
	}
	return dst
}
