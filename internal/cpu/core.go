// Package cpu models the scalar CPU cores of Table 4: 8-issue superscalar
// pipelines (TaiShan V110-class) that execute scalar instructions locally
// and transmit SVE and EM-SIMD instructions to the shared co-processor in
// program order (§4.1.1).
//
// Simplifications relative to a full out-of-order core, and why they are
// safe for the paper's experiments:
//
//   - The core is in-order with register scoreboarding and perfect
//     prediction of loop branches. The evaluation's loops are short,
//     perfectly predictable streams, so the OoO front end of the paper's
//     core contributes no reordering that matters here; transmitting at
//     execute equals the paper's transmit-at-retire because an in-order
//     core never squashes.
//   - Speculative transmission of MRS <decision> (§4.1.1) is modeled as a
//     combinational read of the resource table with the EM-SIMD latency —
//     the paper's motivation (the monitor must not wait for the SIMD
//     backlog) is preserved, and correctness under stale reads is the
//     compiler's obligation, exactly as in §6.4.
//   - The Memory Ordering Buffer is a per-core "vector memory quiescent"
//     check: scalar memory operations wait until the co-processor has no
//     outstanding vector accesses for this core (Table 2's conservative
//     ordering; scalar and vector code never interleave finer than a phase
//     in generated programs).
package cpu

import (
	"fmt"
	"math"

	"occamy/internal/coproc"
	"occamy/internal/digest"
	"occamy/internal/isa"
	"occamy/internal/mem"
	"occamy/internal/obs"
	"occamy/internal/sim"
)

// Config sets the scalar core parameters.
type Config struct {
	Width     int    // issue width (Table 4: 8)
	IntLat    uint64 // simple integer ops
	FPLat     uint64 // scalar FP ops
	EMSIMDLat uint64 // combinational system-register reads
}

// DefaultConfig returns the Table 4 scalar core. IntLat of zero means
// integer results forward within the same issue group: together with the
// 8-wide front end this approximates the paper's 8-issue out-of-order core,
// whose loop-overhead instructions never gate the vector pipeline.
func DefaultConfig() Config {
	return Config{Width: 8, IntLat: 0, FPLat: 4, EMSIMDLat: 0}
}

const notReady = math.MaxUint64

// CoprocPort is the CPU-facing surface of the co-processor: everything the
// scalar pipeline needs from the vector side. A flat machine wires the
// *coproc.Coproc itself; a clustered machine wires the routed
// *coproc.Complex, which stamps fabric delays and redirects migrated cores —
// the scalar core cannot tell the difference.
type CoprocPort interface {
	// Transmit enqueues a copy of *x into the core's instruction pool.
	Transmit(x *coproc.XInst) coproc.TransmitStatus
	// PoolFull mirrors Transmit's refusal predicate for the skip-ahead scan.
	PoolFull(core int) bool
	// VL is the core's configured vector length in granules.
	VL(core int) int
	// ReadSysNow reads a system register combinationally (§4.1.1).
	ReadSysNow(core int, sys isa.SysReg) uint32
	// MemInFlight counts outstanding vector memory operations (MOB gate).
	MemInFlight(core int, now uint64) int
	// StripBoundary lands pending width revocations and migrations; false
	// means the core must hold the strip boundary (drain in progress).
	StripBoundary(core int) bool
}

// Core is one scalar CPU core executing a compiled program.
type Core struct {
	id  int
	cfg Config
	// prog is wiring, not state: Build installs it, and an OS scheduler
	// swaps it with SetProgram when it dispatches another task.
	prog  *isa.Program
	cp    CoprocPort
	l1    mem.Port
	data  *mem.Memory
	stats *sim.Stats

	FullState

	// The phase counter cells are resolved once (Stats.Counter pointers
	// are stable across Restore) so the per-cycle bumps are a pointer add,
	// not a map lookup — the string-keyed form showed up as ~16% of sweep
	// time in profiles.
	phaseCycleCells   []*uint64
	phaseEnteredCells []*uint64
	phaseCyclePool    []*uint64
	phaseEnteredPool  []*uint64
	poolFullCell      *uint64
	mobStallCell      *uint64
	haltCycleCell     *uint64
	reconfigCell      *uint64
	monitorCell       *uint64

	// probe is the observability hook; nil when the run is not observed
	// (every obs method is nil-receiver-safe).
	probe *obs.Probe

	// xinst stages the instruction being transmitted. Transmit takes it by
	// pointer, and the pointer points into the Core, so the interface call
	// neither copies the 136-byte instruction nor makes anything escape.
	xinst coproc.XInst
}

// State is a core's architectural context, for OS context switching (§5):
// everything program-visible — the program counter, the scalar integer
// and FP register files, the transmit-side tail predicate — plus the halt
// flag and the attribution phase. The program itself is not in it (see
// SetProgram), and vector registers live in the co-processor and are saved
// separately.
type State struct {
	pc int
	x  [isa.NumXRegs]int64
	f  [isa.NumFRegs]float32
	// tailActive is the transmit-side predicate set by VWHILE; -1 means
	// full vector length.
	tailActive int
	halted     bool
	haltCycle  uint64
	// phase tracks the current compiler phase for attribution.
	phase int
}

// FullState is a core's checkpointed state. Unlike State — the OS
// context-switch view, which requires quiescence and clears the
// scoreboards — it also holds the register-ready timestamps, the park
// status, the open attribution slice and the progress counters, so a
// restored run resumes mid-flight bit-identically to one that never
// stopped.
type FullState struct {
	State
	xReady [isa.NumXRegs]uint64
	fReady [isa.NumFRegs]uint64
	parked bool
	// phaseStart is the cycle the current phase's Perfetto slice opened at.
	phaseStart uint64
	// insts counts executed instructions for the forward-progress
	// watchdog; elems counts vector elements offered at strip boundaries
	// (each RdElems adds the sampled width), the work measure of the
	// degradation experiment — a proxy that overshoots the trip count by at
	// most one strip per pass. Plain fields, not Stats counters: the
	// registry must stay bit-identical whether or not anyone reads them.
	insts uint64
	elems uint64
}

// SetProbe attaches the observability probe (nil disables).
func (c *Core) SetProbe(p *obs.Probe) { c.probe = p }

// New builds a core. l1 is the core's private L1D port; data the functional
// memory.
func New(id int, cfg Config, prog *isa.Program, cp CoprocPort, l1 mem.Port, data *mem.Memory, stats *sim.Stats) *Core {
	c := &Core{id: id, cfg: cfg, prog: prog, cp: cp, l1: l1, data: data, stats: stats}
	c.State = NewState()
	// Resolve every counter cell the execute path can touch: the tick path
	// must stay allocation-free, so no fmt.Sprintf after construction, and
	// Stats creates a counter on first touch — on a large machine a core's
	// first pool-full stall can land arbitrarily deep into the run, inside a
	// window the zero-allocation contract measures.
	c.buildPhaseNames(prog)
	c.poolFullCell = stats.Counter(fmt.Sprintf("cpu%d.pool_full_stall", id))
	c.mobStallCell = stats.Counter(fmt.Sprintf("cpu%d.mob_stall", id))
	stats.Counter(fmt.Sprintf("cpu%d.rename_block_stall", id))
	c.haltCycleCell = stats.Counter(fmt.Sprintf("cpu%d.halt_cycle", id))
	c.reconfigCell = stats.Counter(fmt.Sprintf("cpu%d.reconfig_insts", id))
	c.monitorCell = stats.Counter(fmt.Sprintf("cpu%d.monitor_insts", id))
	return c
}

// buildPhaseNames (re)installs the per-phase counter cells for prog; indexed
// by phase+1 so the pre-phase prologue (phase -1) has a slot. The cells depend
// only on the core id and the phase index, so they live in a grown-once pool:
// swapping in a program no larger than any already seen — a context switch
// between an OS scheduler's tasks — allocates nothing.
func (c *Core) buildPhaseNames(prog *isa.Program) {
	n := prog.NumPhases + 1
	c.PrewarmPhases(prog.NumPhases)
	c.phaseCycleCells = c.phaseCyclePool[:n]
	c.phaseEnteredCells = c.phaseEnteredPool[:n]
}

// PrewarmPhases extends the phase counter-cell pool up to numPhases.
// Schedulers that swap precompiled tasks onto the core call this at
// registration time so no dispatch on the tick path ever builds a name.
func (c *Core) PrewarmPhases(numPhases int) {
	for p := len(c.phaseCyclePool); p <= numPhases; p++ {
		// Materialized eagerly: a late phase is first entered mid-run,
		// and creating its counter then would allocate on the tick path.
		cn := c.stats.Counter(fmt.Sprintf("cpu%d.phase%d.cycles", c.id, p-1))
		en := c.stats.Counter(fmt.Sprintf("cpu%d.phase%d.entered_cycle", c.id, p-1))
		c.phaseCyclePool = append(c.phaseCyclePool, cn)
		c.phaseEnteredPool = append(c.phaseEnteredPool, en)
	}
}

// Halted reports whether the program has executed HALT.
func (c *Core) Halted() bool { return c.halted }

// HaltCycle returns the cycle at which HALT executed.
func (c *Core) HaltCycle() uint64 { return c.haltCycle }

// PC returns the current program counter (diagnostics).
func (c *Core) PC() int { return c.pc }

// X returns scalar register r (tests).
func (c *Core) X(r isa.Reg) int64 { return c.x[r] }

// F returns scalar FP register r (tests).
func (c *Core) F(r isa.Reg) float32 { return c.f[r] }

// HandleResult is the coproc.ScalarResponder for this core.
func (c *Core) HandleResult(core int, reg isa.Reg, val uint64, ready uint64) {
	if core != c.id {
		return
	}
	c.x[reg] = int64(val)
	c.xReady[reg] = ready
}

// Name implements sim.Component.
func (c *Core) Name() string { return fmt.Sprintf("cpu%d", c.id) }

// Tick executes up to Width instructions in order; it stops at the first
// hazard (operand not ready, memory reject, full co-processor pool).
func (c *Core) Tick(now uint64) {
	if c.halted || c.parked {
		return
	}
	*c.phaseCycleCells[c.phase+1]++
	// A live core's fallback explanation for this cycle is scalar work;
	// more specific signals raised below take priority in the classifier.
	c.probe.Signal(c.id, obs.SigScalar)
	for slot := 0; slot < c.cfg.Width && !c.halted; slot++ {
		in := c.prog.AtPtr(c.pc)
		if in.Phase != c.phase {
			c.closePhaseSlice(now)
			c.phase = in.Phase
			c.phaseStart = now
			*c.phaseEnteredCells[c.phase+1] = now
		}
		if !c.execute(in, now) {
			return
		}
		c.insts++
	}
}

// Progress implements sim.ProgressReporter: retired-instruction count for
// the forward-progress watchdog.
func (c *Core) Progress() uint64 { return c.insts }

// Elems returns how many vector elements the program has advanced past
// (INCVL steps under the live vector length) — the throughput numerator of
// the degradation experiment.
func (c *Core) Elems() uint64 { return c.elems }

// closePhaseSlice emits the Perfetto complete-slice for the phase that just
// ended (no-op without a sink or before the first phase).
func (c *Core) closePhaseSlice(now uint64) {
	s := c.probe.Sink()
	if s == nil || c.phase < 0 {
		return
	}
	s.EmitComplete(c.id, obs.TidPhases, fmt.Sprintf("phase %d", c.phase),
		c.phaseStart, now-c.phaseStart, nil)
}

// xr reads scalar register r honouring XZR.
func (c *Core) xr(r isa.Reg) int64 {
	if r == isa.XZR || r == isa.RegNone {
		return 0
	}
	return c.x[r]
}

func (c *Core) xw(r isa.Reg, v int64, ready uint64) {
	if r == isa.XZR || r == isa.RegNone {
		return
	}
	c.x[r] = v
	c.xReady[r] = ready
}

func (c *Core) xReadyAt(r isa.Reg, now uint64) bool {
	if r == isa.XZR || r == isa.RegNone {
		return true
	}
	return c.xReady[r] <= now
}

func (c *Core) fReadyAt(r isa.Reg, now uint64) bool {
	if r == isa.RegNone {
		return true
	}
	return c.fReady[r] <= now
}

// execute runs one instruction; it returns false when the instruction
// stalled (pc unchanged) and the cycle's issue must stop.
func (c *Core) execute(in *isa.Inst, now uint64) bool {
	op := in.Op
	switch {
	case op.Class() == isa.ClassSVE:
		return c.transmitVector(in, now)
	case op.IsEMSIMD():
		return c.execEMSIMD(in, now)
	}

	switch op {
	case isa.OpNop:
	case isa.OpHalt:
		c.halted = true
		c.haltCycle = now
		c.closePhaseSlice(now)
		*c.haltCycleCell = now
		return true
	case isa.OpMovI:
		c.xw(in.Dst, in.Imm, now+c.cfg.IntLat)
	case isa.OpMov:
		if !c.xReadyAt(in.Src1, now) {
			return false
		}
		c.xw(in.Dst, c.xr(in.Src1), now+c.cfg.IntLat)
	case isa.OpAddI, isa.OpSubI, isa.OpMulI:
		if !c.xReadyAt(in.Src1, now) {
			return false
		}
		v := c.xr(in.Src1)
		switch op {
		case isa.OpAddI:
			v += in.Imm
		case isa.OpSubI:
			v -= in.Imm
		case isa.OpMulI:
			v *= in.Imm
		}
		c.xw(in.Dst, v, now+c.cfg.IntLat)
	case isa.OpAdd, isa.OpSub:
		if !c.xReadyAt(in.Src1, now) || !c.xReadyAt(in.Src2, now) {
			return false
		}
		v := c.xr(in.Src1)
		if op == isa.OpAdd {
			v += c.xr(in.Src2)
		} else {
			v -= c.xr(in.Src2)
		}
		c.xw(in.Dst, v, now+c.cfg.IntLat)
	case isa.OpB, isa.OpBLT, isa.OpBGE, isa.OpBEQ, isa.OpBNE, isa.OpBEQI, isa.OpBNEI:
		return c.execBranch(in, now)
	case isa.OpRdElems:
		// The strip boundary: any pending fault revocation of this core's
		// vector length lands here, never mid-strip (a width change between
		// the sampled bound and the body's stores would strand elements).
		// A clustered machine also completes tenant migrations here; while
		// one is draining the boundary is withheld and the core waits.
		if !c.cp.StripBoundary(c.id) {
			c.probe.Signal(c.id, obs.SigDrain)
			return false
		}
		n := int64(coproc.LanesPerGranule * c.cp.VL(c.id))
		if n == 0 {
			// A fixed-mode binary whose lanes are all revoked can never
			// advance its strip loop: stall here (a busy spin would look
			// like forward progress) so the watchdog names this core.
			return false
		}
		c.xw(in.Dst, n, now+c.cfg.IntLat)
		c.elems += uint64(n)
	case isa.OpIncVL:
		if !c.xReadyAt(in.Src1, now) {
			return false
		}
		step := in.Imm * int64(coproc.LanesPerGranule*c.cp.VL(c.id))
		c.xw(in.Dst, c.xr(in.Src1)+step, now+c.cfg.IntLat)
	case isa.OpVWhile:
		return c.execVWhile(in, now)
	case isa.OpSLoadF, isa.OpSStoreF:
		return c.execScalarMem(in, now)
	case isa.OpSFMovI:
		c.f[in.Dst] = in.FImm
		c.fReady[in.Dst] = now + c.cfg.FPLat
	case isa.OpSFAdd, isa.OpSFSub, isa.OpSFMul, isa.OpSFDiv, isa.OpSFMax, isa.OpSFMin, isa.OpSFMla:
		return c.execScalarFP(in, now)
	case isa.OpSIAdd, isa.OpSISub, isa.OpSIMul, isa.OpSIAnd, isa.OpSIOr, isa.OpSIXor,
		isa.OpSIShl, isa.OpSIShr, isa.OpSIMax, isa.OpSIMin:
		if !c.fReadyAt(in.Src1, now) || !c.fReadyAt(in.Src2, now) {
			return false
		}
		v, ok := isa.IntBinFn(op, c.f[in.Src1], c.f[in.Src2])
		if !ok {
			panic("cpu: bad scalar integer op")
		}
		c.f[in.Dst] = v
		c.fReady[in.Dst] = now + c.cfg.IntLat + 1
		c.pc++
		return true
	case isa.OpSFAbs, isa.OpSFNeg, isa.OpSFSqrt:
		if !c.fReadyAt(in.Src1, now) {
			return false
		}
		v := c.f[in.Src1]
		switch op {
		case isa.OpSFAbs:
			v = float32(math.Abs(float64(v)))
		case isa.OpSFNeg:
			v = -v
		case isa.OpSFSqrt:
			v = float32(math.Sqrt(float64(v)))
		}
		c.f[in.Dst] = v
		c.fReady[in.Dst] = now + c.cfg.FPLat
	default:
		panic(fmt.Sprintf("cpu: unimplemented opcode %s", op))
	}
	c.pc++
	return true
}

func (c *Core) execBranch(in *isa.Inst, now uint64) bool {
	if !c.xReadyAt(in.Src1, now) {
		return false
	}
	taken := false
	switch in.Op {
	case isa.OpB:
		taken = true
	case isa.OpBEQI:
		taken = c.xr(in.Src1) == in.Imm
	case isa.OpBNEI:
		taken = c.xr(in.Src1) != in.Imm
	default:
		if !c.xReadyAt(in.Src2, now) {
			return false
		}
		a, b := c.xr(in.Src1), c.xr(in.Src2)
		switch in.Op {
		case isa.OpBLT:
			taken = a < b
		case isa.OpBGE:
			taken = a >= b
		case isa.OpBEQ:
			taken = a == b
		case isa.OpBNE:
			taken = a != b
		}
	}
	if taken {
		c.pc = in.Target
	} else {
		c.pc++
	}
	return true
}

func (c *Core) execVWhile(in *isa.Inst, now uint64) bool {
	if in.Imm == 1 { // reset to full predicate
		c.tailActive = -1
		c.pc++
		return true
	}
	if !c.xReadyAt(in.Src1, now) || !c.xReadyAt(in.Src2, now) {
		return false
	}
	rem := c.xr(in.Src1) - c.xr(in.Src2)
	lim := int64(coproc.LanesPerGranule * c.cp.VL(c.id))
	if rem < 0 {
		rem = 0
	}
	if rem > lim {
		rem = lim
	}
	c.tailActive = int(rem)
	c.xw(in.Dst, rem, now+c.cfg.IntLat)
	c.pc++
	return true
}

func (c *Core) execScalarMem(in *isa.Inst, now uint64) bool {
	if !c.xReadyAt(in.Src1, now) {
		return false
	}
	// MOB: wait for vector memory quiescence (Table 2).
	if c.cp.MemInFlight(c.id, now) > 0 {
		c.probe.Signal(c.id, obs.SigLSUWait)
		*c.mobStallCell++
		return false
	}
	addr := uint64(c.xr(in.Src1)) + uint64(in.Imm)
	if in.Op == isa.OpSLoadF {
		done, ok := c.l1.Access(now, addr, 4, false)
		if !ok {
			return false
		}
		c.f[in.Dst] = c.data.ReadF32(addr)
		c.fReady[in.Dst] = done
	} else {
		if !c.fReadyAt(in.Dst, now) { // store data
			return false
		}
		if _, ok := c.l1.Access(now, addr, 4, true); !ok {
			return false
		}
		c.data.WriteF32(addr, c.f[in.Dst])
	}
	c.pc++
	return true
}

func (c *Core) execScalarFP(in *isa.Inst, now uint64) bool {
	if !c.fReadyAt(in.Src1, now) || !c.fReadyAt(in.Src2, now) {
		return false
	}
	if in.Op == isa.OpSFMla && !c.fReadyAt(in.Dst, now) {
		return false
	}
	a, b := c.f[in.Src1], c.f[in.Src2]
	var v float32
	switch in.Op {
	case isa.OpSFAdd:
		v = a + b
	case isa.OpSFSub:
		v = a - b
	case isa.OpSFMul:
		v = a * b
	case isa.OpSFDiv:
		v = a / b
	case isa.OpSFMax:
		v = float32(math.Max(float64(a), float64(b)))
	case isa.OpSFMin:
		v = float32(math.Min(float64(a), float64(b)))
	case isa.OpSFMla:
		v = c.f[in.Dst] + a*b
	}
	c.f[in.Dst] = v
	c.fReady[in.Dst] = now + c.cfg.FPLat
	c.pc++
	return true
}

// execEMSIMD handles MSR/MRS at the core side: resolve operands and either
// read combinationally (speculative reads) or transmit to the EM-SIMD path.
func (c *Core) execEMSIMD(in *isa.Inst, now uint64) bool {
	if in.Op == isa.OpMRS {
		if in.Sys == isa.SysStatus {
			// Must order after the preceding MSR <VL>: go through
			// the in-order pool and wait for the response.
			x := c.stage(isa.OpMRS, in.Phase)
			x.Sys, x.XDst = in.Sys, in.Dst
			if !c.transmit() {
				return false
			}
			c.xReady[in.Dst] = notReady // response will unblock
			c.probe.Signal(c.id, obs.SigDrain)
			*c.reconfigCell++
			c.pc++
			return true
		}
		// Speculative read (§4.1.1): combinational, low latency.
		c.xw(in.Dst, int64(c.cp.ReadSysNow(c.id, in.Sys)), now+c.cfg.EMSIMDLat)
		if in.Sys == isa.SysDecision {
			c.probe.Signal(c.id, obs.SigMonitor)
			*c.monitorCell++
		}
		c.pc++
		return true
	}
	// MSR: resolve the value and transmit.
	val := uint32(in.Imm)
	if in.Src1 != isa.RegNone {
		if !c.xReadyAt(in.Src1, now) {
			return false
		}
		val = uint32(c.xr(in.Src1))
	}
	x := c.stage(isa.OpMSR, in.Phase)
	x.Sys, x.Val = in.Sys, val
	if !c.transmit() {
		return false
	}
	switch in.Sys {
	case isa.SysVL:
		c.probe.Signal(c.id, obs.SigDrain)
		*c.reconfigCell++
	case isa.SysOI:
		c.probe.Signal(c.id, obs.SigMonitor)
	}
	c.pc++
	return true
}

// transmitVector resolves a vector instruction's scalar operands and sends
// it to the co-processor pool. The active element count and data-path width
// are captured here: pre-reconfiguration instructions execute under the old
// vector length (§4.2.2).
func (c *Core) transmitVector(in *isa.Inst, now uint64) bool {
	vl := c.cp.VL(c.id)
	active := coproc.LanesPerGranule * vl
	if c.tailActive >= 0 && c.tailActive < active {
		active = c.tailActive
	}
	x := c.stage(in.Op, in.Phase)
	x.Dst, x.Src1, x.Src2 = in.Dst, in.Src1, in.Src2
	x.FImm, x.Active, x.Width = in.FImm, active, vl
	switch in.Op {
	case isa.OpVLoad, isa.OpVStore:
		// Base + scaled-index addressing: addr = Xbase + 4*Xindex.
		if !c.xReadyAt(in.Src1, now) || !c.xReadyAt(in.Src2, now) {
			return false
		}
		x.Addr = uint64(c.xr(in.Src1) + 4*c.xr(in.Src2))
		x.Src1, x.Src2 = isa.RegNone, isa.RegNone
	case isa.OpVDupX, isa.OpVInsX0:
		if !c.xReadyAt(in.Src1, now) {
			return false
		}
		x.Val = uint32(c.xr(in.Src1))
		x.Src1 = isa.RegNone
	case isa.OpVMovX0:
		x.XDst = in.Dst
		x.Dst = isa.RegNone
	}
	if !c.transmit() {
		return false
	}
	if in.Op == isa.OpVMovX0 {
		c.xReady[in.Dst] = notReady
	}
	c.pc++
	return true
}

// stage clears the staged instruction (c.xinst) for a new one and returns it
// for the caller to fill. The fields are set one by one: a composite literal
// assigned through a pointer is built in a temporary and then copied.
func (c *Core) stage(op isa.Opcode, phase int) *coproc.XInst {
	x := &c.xinst
	*x = coproc.XInst{}
	x.Op, x.Core, x.Phase = op, c.id, phase
	return x
}

// transmit sends the instruction staged in c.xinst.
func (c *Core) transmit() bool {
	if c.cp.Transmit(&c.xinst) != coproc.TransmitOK {
		c.probe.Signal(c.id, obs.SigDispatchFull)
		*c.poolFullCell++
		return false
	}
	return true
}

// SetProgram installs prog as the core's program, leaving every register
// as it is: an OS scheduler calls it, then Restore, to switch a task in.
func (c *Core) SetProgram(prog *isa.Program) {
	c.prog = prog
	c.buildPhaseNames(prog)
}

// Snapshot captures the core's architectural state. The caller must ensure
// the core is quiescent (parked and the co-processor drained), mirroring
// §5's "when all the pipelines are drained".
func (c *Core) Snapshot() State { return c.State }

// Restore installs a previously captured context (possibly of a different
// task, whose program SetProgram installed). Pending scoreboard entries are
// cleared: quiescence guarantees no results are in flight.
func (c *Core) Restore(s State) {
	c.State = s
	c.xReady = [isa.NumXRegs]uint64{}
	c.fReady = [isa.NumFRegs]uint64{}
}

// RestoreCheckpoint rewinds the core to a Checkpoint. The program is
// wiring and stays installed.
func (c *Core) RestoreCheckpoint(s FullState) { digest.Copy(&c.FullState, &s) }

// NewState is the boot context of a fresh task.
func NewState() State { return State{tailActive: -1, phase: -1} }

// Park stops the core from fetching (the OS descheduled it); Unpark resumes.
// A parked core still holds its architectural state.
func (c *Core) Park() { c.parked = true }

// Unpark resumes fetching.
func (c *Core) Unpark() { c.parked = false }

// Parked reports whether the core is parked.
func (c *Core) Parked() bool { return c.parked }
