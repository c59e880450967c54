package occamy

import (
	"fmt"

	"occamy/internal/arch"
	"occamy/internal/coproc"
	"occamy/internal/cpu"
	"occamy/internal/isa"
	"occamy/internal/osched"
)

// Assembly gives direct access to the simulated machine for hand-written
// EM-SIMD programs: one assembly source per core, run on the elastic
// co-processor. See the isa package's Assemble documentation for the syntax
// and examples/assembly for a walkthrough of the Figure 9 protocol.
type Assembly struct {
	sys *arch.System
}

// NewAssembly assembles one program per core and installs them on a fresh
// elastic system (Table 4 parameters, 4 granules per core).
func NewAssembly(sources ...string) (*Assembly, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("occamy: no programs")
	}
	progs := make([]*isa.Program, len(sources))
	for c, src := range sources {
		prog, err := isa.Assemble(fmt.Sprintf("core%d", c), src)
		if err != nil {
			return nil, fmt.Errorf("occamy: core %d: %w", c, err)
		}
		progs[c] = prog
	}
	sys, err := osched.BuildHost(arch.Occamy, len(sources), arch.Options{})
	if err != nil {
		return nil, err
	}
	for c, core := range sys.Cores {
		core.SetProgram(progs[c])
		core.Restore(cpu.NewState())
	}
	return &Assembly{sys: sys}, nil
}

// WriteF32 seeds simulated memory before Run.
func (a *Assembly) WriteF32(addr uint64, v float32) { a.sys.Hier.Mem.WriteF32(addr, v) }

// ReadF32 inspects simulated memory after Run.
func (a *Assembly) ReadF32(addr uint64) float32 { return a.sys.Hier.Mem.ReadF32(addr) }

// X reads a scalar register of a core after Run.
func (a *Assembly) X(core int, reg int) int64 { return a.sys.Cores[core].X(isa.Reg(reg)) }

// VL reads a core's configured vector length in granules.
func (a *Assembly) VL(core int) int { return a.sys.Cplx.VL(core) }

// Run simulates until every core halts and the co-processor drains; it
// returns the cycle count.
func (a *Assembly) Run(maxCycles uint64) (uint64, error) {
	if maxCycles == 0 {
		maxCycles = 10_000_000
	}
	_, err := a.sys.Engine.RunUntil(a.sys.Done, maxCycles)
	return a.sys.Engine.Cycle(), err
}

// LaneEvents returns the lane-management log (repartitions and
// reconfigurations) for inspecting the EM-SIMD protocol.
func (a *Assembly) LaneEvents() []coproc.LaneEvent { return a.sys.Cplx.LaneEvents() }
