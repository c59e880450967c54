package lanemgr

import (
	"sort"

	"occamy/internal/isa"
	"occamy/internal/roofline"
)

// gainEpsilon is the smallest net performance gain (GFLOP/s) considered
// worth an extra ExeBU; it suppresses floating-point noise in Eq. 3.
const gainEpsilon = 1e-9

// Plan computes a lane-partition plan {vl_1..vl_M} for the co-running
// workloads described by their <OI> registers, using the greedy algorithm of
// §5.2 over total ExeBUs:
//
//  1. every workload currently executing a phase (<OI> != 0) receives one
//     ExeBU (the fairness floor — nobody is starved out);
//  2. repeatedly, workloads are sorted by the net performance gain (Eq. 3)
//     of receiving one more ExeBU and each workload with a positive gain is
//     granted one in that order;
//  3. the loop stops when the ExeBUs run out or no workload would gain.
//
// Inactive workloads (zero OI) receive zero. Ties are broken by core index,
// which makes the plan deterministic and splits lanes (near-)equally among
// identical compute-bound workloads. ExeBUs that would benefit nobody stay
// free. If there are more active workloads than ExeBUs, the first come first
// (the paper assumes M <= C <= N, so this is a defensive degenerate case).
func Plan(m roofline.Model, ois []isa.OIPair, total int) []int {
	return planInto(m, ois, total, make([]int, len(ois)), make([]cand, 0, len(ois)))
}

// cand is one candidate row of the marginal-gain sort in Plan.
type cand struct {
	idx  int
	gain float64
}

// planInto is Plan over caller-owned buffers: vls must be len(ois) and
// zeroed, cands is scratch for the gain sort. The Manager's Repartition path
// uses it with pooled buffers so the per-<OI>-write plan computation is
// allocation-free.
func planInto(m roofline.Model, ois []isa.OIPair, total int, vls []int, cands []cand) []int {
	remaining := total

	// Step 1: fairness floor.
	for i, oi := range ois {
		if oi.IsZero() {
			continue
		}
		if remaining == 0 {
			break
		}
		vls[i] = 1
		remaining--
	}

	// Steps 2-3: marginal-gain rounds.
	for remaining > 0 {
		cands = cands[:0]
		for i, oi := range ois {
			if oi.IsZero() || vls[i] == 0 {
				continue
			}
			if g := m.NetGain(vls[i], oi); g > gainEpsilon {
				cands = append(cands, cand{idx: i, gain: g})
			}
		}
		if len(cands) == 0 {
			break
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].gain > cands[b].gain })
		granted := false
		for _, c := range cands {
			if remaining == 0 {
				break
			}
			vls[c.idx]++
			remaining--
			granted = true
		}
		if !granted {
			break
		}
	}
	return vls
}

// Manager is the hardware lane manager: it owns the resource table and
// recomputes the partition plan whenever any core writes <OI> (a
// phase-changing point, §5). It is pure control logic — the co-processor's
// EM-SIMD data path invokes it; timing (the one-off plan-computation
// latency) is modeled there.
type Manager struct {
	Model roofline.Model
	Tbl   *ResourceTbl
	ManagerState
	// Scratch buffers reused across Repartition calls (grown once, then
	// steady-state allocation-free — repartitioning is on the context-switch
	// hot path under preemptive traffic).
	scratchOIs  []isa.OIPair
	scratchVLs  []int
	scratchCand []cand
	// AfterRepartition, when non-nil, runs at the end of every Repartition.
	// In a sharded machine it is the seam between the two planning levels:
	// each cluster's Manager remains the per-cluster pass (fairness floor and
	// <OI>-driven decisions over that cluster's ExeBUs, semantics unchanged),
	// and the hook hands control to Hier.Balance, the global pass that
	// reassigns cores between clusters when load diverges.
	AfterRepartition func()
}

// ManagerState is the lane manager's checkpointed state.
type ManagerState struct {
	// Repartitions counts plan computations, for the Figure 15 overhead
	// accounting.
	Repartitions uint64
}

// NewManager returns a lane manager over tbl using roofline model m.
func NewManager(m roofline.Model, tbl *ResourceTbl) *Manager {
	return &Manager{Model: m, Tbl: tbl}
}

// OnOIWrite is called by the EM-SIMD data path when core c writes <OI>. It
// stores the value and publishes a fresh plan in every core's <decision>
// register.
func (g *Manager) OnOIWrite(c int, oi isa.OIPair) {
	g.Tbl.SetOI(c, oi)
	g.Repartition()
}

// Repartition recomputes the plan from the current <OI> registers and writes
// it to the <decision> registers. Lanes the greedy pass leaves free (every
// active workload at its roofline knee) are spread round-robin over the
// active workloads: idle silicon helps nobody, and a wider data path lets a
// memory-bound workload keep its fair share of the shared memory bandwidth —
// this is what preserves the paper's Case 3 (<memory, memory>) parity.
// Planning runs over the usable pool, so after a fault has excluded units
// the fresh decisions fit the surviving ExeBUs (fairness floor included).
func (g *Manager) Repartition() {
	n := g.Tbl.Cores()
	if cap(g.scratchOIs) < n {
		g.scratchOIs = make([]isa.OIPair, 0, n)
		g.scratchVLs = make([]int, n)
		g.scratchCand = make([]cand, 0, n)
	}
	ois := g.Tbl.ActiveOIsInto(g.scratchOIs[:0])
	for i := range g.scratchVLs {
		g.scratchVLs[i] = 0
	}
	plan := planInto(g.Model, ois, g.Tbl.Usable(), g.scratchVLs[:n], g.scratchCand[:0])
	free := g.Tbl.Usable()
	active := 0
	for c, vl := range plan {
		free -= vl
		if !ois[c].IsZero() {
			active++
		}
	}
	for c := 0; free > 0 && active > 0; c = (c + 1) % len(plan) {
		if !ois[c].IsZero() {
			plan[c]++
			free--
		}
	}
	// Degraded-pool fairness floor: when faults shrink the usable pool below
	// the active-core count, the greedy pass starves someone with a zero
	// decision — which an elastic binary would adopt and livelock on. Publish
	// at least one granule per active core instead; the cores then time-share
	// the survivors through the reconfiguration protocol (a starved core's
	// grow request waits until a peer's phase ends and releases lanes).
	// Never reached while the pool is healthy (usable >= active cores).
	if g.Tbl.Failed() > 0 {
		for c := range plan {
			if plan[c] == 0 && !ois[c].IsZero() {
				plan[c] = 1
			}
		}
	}
	for c, vl := range plan {
		g.Tbl.SetDecision(c, vl)
	}
	g.Repartitions++
	if g.AfterRepartition != nil {
		g.AfterRepartition()
	}
}
