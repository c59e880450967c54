// Package coproc models the Occamy SIMD co-processor of §4 (Figure 5): the
// per-core instruction pools fed by the scalar cores, the EM-SIMD data path
// executing MSR/MRS on the five dedicated registers, the SIMD compute and
// ld/st data paths built from homogeneous 128-bit ExeBUs, the RegBlk physical
// register file, the LSU, and the Manager (ResourceTbl + LaneMgr).
//
// One implementation serves all four Figure 1 architectures; a Config
// selects the sharing policy:
//
//   - Private: fixed half-split vector lengths, per-core issue budgets and
//     per-core physical-register namespaces.
//   - FTS (temporal sharing): full-width vector length for every core, a
//     single shared issue budget, and one shared full-width physical
//     register pool — the register pressure that produces Figure 13.
//   - VLS (static spatial): per-core fixed vector lengths chosen once by the
//     roofline model, per-core budgets and namespaces.
//   - Occamy (elastic spatial): EM-SIMD reconfiguration enabled; vector
//     lengths follow the ResourceTbl.
//
// The co-processor also executes instructions functionally: vector registers
// hold real float32 lanes and loads/stores move real values through
// mem.Memory, so the compiler's correctness obligations (§6.4) are testable.
package coproc

import "fmt"

// Config sets the structural parameters (Table 4 and Figure 5) and the
// sharing policy.
type Config struct {
	Cores int
	// ExeBUs is the number of 128-bit execution units (granules); Table 4
	// uses 8 (32 lanes) for the 2-core configuration.
	ExeBUs int

	// ActiveCores is the number of cores actually resident on this instance
	// (0 means all of Cores). On a clustered machine Cores is the
	// machine-wide count — global core IDs index the machine's one row per
	// core, which every cluster shares — but shared-structure arithmetic
	// (the FTS register-file quota) must divide by the tenants this shard
	// hosts.
	ActiveCores int

	// ComputeIssue and MemIssue are the per-core (or, with SharedIssue,
	// global) issue budgets per cycle: Table 4's "Vector Issue Width - 4
	// (SIMD Execution Units - 2, ld/st Units - 2)".
	ComputeIssue int
	MemIssue     int
	// SharedIssue makes the budgets global across cores (FTS): every
	// instruction occupies the full-width data path, so cores time-share
	// the issue slots.
	SharedIssue bool

	// PhysRegs is the number of physical vector registers in one rename
	// namespace (160 per RegBlk, §4.2.1). With SharedVRF the namespace is
	// shared by all cores at full width (FTS); otherwise each core has
	// its own namespace over its assigned RegBlks.
	PhysRegs  int
	SharedVRF bool
	// ArchRegs is the architectural vector register count per core whose
	// mappings are permanently held (32 SVE z-registers).
	ArchRegs int

	// LHQ and STQ are per-core load/store queue capacities (Figure 5).
	LHQ int
	STQ int

	// MaxPhases is the largest compiler phase count across the programs
	// this instance will execute (0 applies a small default). It only
	// pre-sizes the per-phase issue counters so that a core entering a
	// late phase mid-run does not grow a slice on the tick path.
	MaxPhases int

	// Latencies in cycles.
	ComputeLat uint64 // simple FP ops (add/mul/mla/min/max/abs/neg)
	DivLat     uint64 // divide / sqrt
	IntLat     uint64 // integer lane ops (add/logic/shift/min/max)
	EMSIMDLat  uint64 // MRS/MSR data-path latency
	PlanLat    uint64 // LaneMgr plan computation after an <OI> write

	// Elastic enables the EM-SIMD reconfiguration protocol (Occamy). When
	// false, <VL> writes are rejected and vector lengths stay at
	// FixedVLs.
	Elastic bool
	// FixedVLs is the per-core vector length in granules for non-elastic
	// policies.
	FixedVLs []int

	// PoisonOnReconfigure fills freed register lanes with NaN after a
	// successful <VL> write, making any §6.4 compiler violation (use of a
	// value that did not survive reconfiguration) visible as NaN in
	// results. It models §4.2.2: "The data values in these freed RegBlks
	// are not preserved."
	PoisonOnReconfigure bool
}

// Validate checks the structural parameters New would otherwise panic on,
// plus range checks for machine descriptions loaded from JSON. A nil return
// guarantees New will not reject the config.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("coproc: cores must be positive, got %d", c.Cores)
	}
	if c.ExeBUs <= 0 {
		return fmt.Errorf("coproc: ExeBUs must be positive, got %d", c.ExeBUs)
	}
	if c.ComputeIssue <= 0 || c.MemIssue <= 0 {
		return fmt.Errorf("coproc: issue widths must be positive, got compute %d / mem %d",
			c.ComputeIssue, c.MemIssue)
	}
	if c.ArchRegs <= 0 {
		return fmt.Errorf("coproc: ArchRegs must be positive, got %d", c.ArchRegs)
	}
	if c.ActiveCores < 0 || c.ActiveCores > c.Cores {
		return fmt.Errorf("coproc: ActiveCores must be in [0, Cores], got %d with %d cores",
			c.ActiveCores, c.Cores)
	}
	// Renaming needs at least one spare physical register beyond the
	// permanently-held architectural mappings, per namespace.
	if c.SharedVRF {
		if c.PhysRegs <= c.ArchRegs*c.activeCores() {
			return fmt.Errorf("coproc: shared VRF needs PhysRegs > ArchRegs*resident cores, got %d <= %d*%d",
				c.PhysRegs, c.ArchRegs, c.activeCores())
		}
	} else if c.PhysRegs <= c.ArchRegs {
		return fmt.Errorf("coproc: PhysRegs must exceed ArchRegs, got %d <= %d",
			c.PhysRegs, c.ArchRegs)
	}
	if c.LHQ <= 0 || c.STQ <= 0 {
		return fmt.Errorf("coproc: LHQ/STQ must be positive, got %d/%d", c.LHQ, c.STQ)
	}
	if !c.Elastic && len(c.FixedVLs) > 0 {
		if len(c.FixedVLs) != c.Cores {
			return fmt.Errorf("coproc: FixedVLs has %d entries for %d cores",
				len(c.FixedVLs), c.Cores)
		}
		sum := 0
		for i, vl := range c.FixedVLs {
			if vl < 0 {
				return fmt.Errorf("coproc: FixedVLs[%d] is negative (%d)", i, vl)
			}
			sum += vl
		}
		if sum > c.ExeBUs {
			return fmt.Errorf("coproc: FixedVLs sum %d exceeds %d ExeBUs", sum, c.ExeBUs)
		}
	}
	return nil
}

// DefaultConfig returns the Table 4 structural parameters for an elastic
// (Occamy) co-processor serving the given number of cores.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:               cores,
		ExeBUs:              4 * cores, // 32 lanes for 2 cores
		ComputeIssue:        2,
		MemIssue:            2,
		PhysRegs:            160,
		ArchRegs:            32,
		LHQ:                 48,
		STQ:                 32,
		ComputeLat:          4,
		DivLat:              12,
		IntLat:              2,
		EMSIMDLat:           3,
		PlanLat:             8,
		Elastic:             true,
		PoisonOnReconfigure: true,
	}
}

// LanesPerGranule is the number of 32-bit lanes in one granule: each ExeBU
// is a 128-bit unit (§4.2), i.e. four float32 lanes. Every lane↔granule
// conversion in the tree must go through this constant so that figure
// reconstructions agree with the simulated machine rather than a hardcoded
// multiplier.
const LanesPerGranule = 4

// Lanes returns the total 32-bit lane count (for utilization metrics).
func (c Config) Lanes() int { return LanesPerGranule * c.ExeBUs }

// activeCores resolves the resident-tenant count (ActiveCores, defaulting to
// Cores when unset).
func (c *Config) activeCores() int {
	if c.ActiveCores > 0 {
		return c.ActiveCores
	}
	return c.Cores
}
