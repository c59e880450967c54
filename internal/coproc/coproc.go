package coproc

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"occamy/internal/isa"
	"occamy/internal/lanemgr"
	"occamy/internal/mem"
	"occamy/internal/obs"
	"occamy/internal/roofline"
	"occamy/internal/sim"
)

// XInst is an instruction transmitted from a scalar core to the
// co-processor, with every scalar operand already resolved (§4.1.1:
// instructions are transmitted once non-speculative, in program order).
// The co-processor's renamer fills the seq/dep fields at transmit.
type XInst struct {
	Op   isa.Opcode
	Core int
	// Dst is the destination Z register (or the data source for stores).
	Dst  isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg
	// XDst is the scalar destination register for MRS/VMOVX0 responses.
	XDst isa.Reg
	// Sys is the system register for EM-SIMD instructions.
	Sys isa.SysReg
	// Val is the resolved MSR write value (or VINSX0/VDUPX payload bits).
	Val uint32
	// Addr is the resolved byte address for vector loads/stores.
	Addr uint64
	// Active is the element count resolved at transmit time (tail
	// predicate and the vector length configured when the instruction
	// was transmitted — §4.2.2: pre-change SVE instructions execute
	// under the old vector length).
	Active int
	// Width is the data-path width in granules the instruction occupies.
	Width int
	// FImm is the broadcast literal for VDUPI.
	FImm float32
	// Phase attributes the instruction for per-phase statistics.
	Phase int

	// Renamer-assigned fields. seq is the instruction's stream position
	// plus one. dep1..3 name, by seq, the producers that had not issued
	// when the instruction was transmitted; depDone is the latest
	// completion cycle among those that had.
	seq              uint64
	dep1, dep2, dep3 uint64
	depDone          uint64
	// done is the completion cycle, written into the slot at issue: the
	// consumers named above read it there (see depReady).
	done   uint64
	issued bool
	// kind caches the opcode's issue class at transmit time, so rename
	// files the instruction into its scoreboard set without the
	// opcode-table lookups behind Op.IsEMSIMD/IsVectorMem.
	kind issueKind
	// notBefore is the cycle the instruction arrives at its cluster after
	// crossing the CPU→coproc fabric (Complex.Transmit stamps it); zero (or
	// any past cycle) means the instruction is already resident. The renamer
	// will not look at an instruction still in flight.
	notBefore uint64
	// enq is the cycle the instruction was transmitted; issue-time
	// completion minus enq is the issue→retire latency histogrammed for
	// telemetry.
	enq uint64
	// respVal is the precomputed scalar response for VMOVX0 (the value
	// is architecturally determined at transmit; timing at issue).
	respVal uint64
}

// issueKind is the cached issue-stage classification of an XInst.
type issueKind uint8

const (
	kindCompute issueKind = iota
	kindMem               // vector load
	kindStore             // vector store
	kindEMSIMD
)

// ScalarResponder receives scalar results flowing back from the co-processor
// (MRS reads and VMOVX0 lane transfers): Figure 5's "2 Scalar Results/Cycle"
// path. ready is the cycle at which the value may be consumed.
type ScalarResponder func(core int, reg isa.Reg, val uint64, ready uint64)

const (
	// queueCap is the pre-rename instruction-pool depth per core
	// (Figure 5's Instruction Pool; entries hold no physical registers).
	queueCap = 192
	// window caps the renamed, in-flight region per core (ROB size);
	// physical-register availability bounds it further.
	window = 120
	// queueRing is the ring capacity backing the pool: a power of two, so
	// position indices map to slots with one mask, and at least 2*queueCap,
	// so a producer's slot outlives every consumer that reads it. A producer
	// still unissued at its consumer's transmit lies fewer than queueCap
	// positions behind the consumer, and while the consumer waits, every
	// transmit lands fewer than queueCap positions ahead of it: less than
	// 2*queueCap past the producer, where reusing its slot takes queueRing.
	queueRing = 512
	queueMask = queueRing - 1
)

// coreState is one core's row (Figure 5's per-core instruction pool, rename
// state and registers): its checkpointed state, the issue scoreboard derived
// from it and its parking status. A machine has exactly one row per core; on
// a clustered machine every cluster shares the rows and walks only the ones
// it hosts (Coproc.home).
type coreState struct {
	rowState
	// sb tracks the renamed, unissued instructions for the issue scan
	// (scoreboard.go): derived from the queue, never checkpointed.
	sb *scoreboard
	// Execution-strategy state, never checkpointed either. fx is the row's
	// stall effects, latched by its park or by NextWake's scan, which a parked
	// tick and SkipTicks replay (see replay). Parking (park.go): Tick's walk
	// skips the row for cycles before parkUntil; idle marks a last tickCore
	// that made no progress, after which the walk probes the sleep mirror.
	// busy is the cycle's busy lanes, which issueCompute charges and tickRow
	// accounts.
	fx        sleepFx
	parkUntil uint64
	idle      bool
	busy      float64
}

// rowState is a row's checkpointed state: a deep, cycle-accurate account of
// everything Tick and Transmit mutate, so a restored run resumes
// bit-identically mid-flight — mid-backlog, mid-drain, even mid-fault.
type rowState struct {
	// queue is a fixed ring of queueRing slots. head, renamed and tail are
	// monotonically increasing stream positions (never reset); at() maps a
	// position to its slot. Occupancy (tail-head) is bounded by queueCap <
	// queueRing, so a live entry is never overwritten and — unlike the old
	// grow-and-compact slice — steady-state operation neither allocates nor
	// re-copies the backlog. A fixed-size array (not a slice) so the masked
	// index in at() is provably in bounds — the issue scan hits it hard.
	queue *[queueRing]XInst
	head  int
	tail  int
	// renamed is the position one past the last renamed instruction: the
	// region [head, renamed) holds physical destination registers and is
	// eligible for out-of-order issue.
	renamed int

	// z is the functional architectural vector state: 32 registers of
	// Lanes() float32 elements each, register r at z[r*Lanes():], updated in
	// program order at transmit.
	z []float32

	// Renamer state: the seq of each architectural vector register's last
	// writer and, once that writer has issued, its completion cycle (how a
	// consumer transmitted after the issue resolves the dependence).
	lastWriter [isa.NumZRegs]uint64
	writerDone [isa.NumZRegs]uint64

	inflight holdTracker // issued, not yet written back (drain check)
	lhq      holdTracker // outstanding loads
	stq      holdTracker // outstanding stores
	pool     regPool     // per-core physical-register namespace
	// regsCut physical registers of the core's RegBlk file are out of
	// service (a failed register bank): the loss travels with the core.
	regsCut int

	computeIssued  uint64
	memIssued      uint64
	computeByPhase []uint64
	renameStalls   uint64
	mshrRetries    uint64

	// drainWait counts cycles an MSR <VL> sat at the queue head waiting
	// for the pipeline to drain (Figure 15's reconfiguration overhead).
	drainWait uint64

	// draining/drainStart track the currently open §4.2.2 drain window,
	// for the drain-length histogram and the Perfetto drain slice.
	draining   bool
	drainStart uint64

	// lastReject is the <VL> of the most recently logged rejected MSR,
	// or -1 once a grant (or a new plan) ends the streak. The monitor
	// retries a rejected reconfiguration every few cycles until lanes
	// free up; the event log keeps the first rejection of each streak
	// and drops the identical retries (the reject *counter* still
	// counts every attempt).
	lastReject int

	// lastActive is the latest cycle with queued work, or with in-flight
	// work at a tick; lastActiveBy adds the rest of the in-flight part.
	lastActive uint64

	busyTimeline sim.Timeline // average busy lanes per 1000 cycles (by value: the
	// per-cycle Record touches the same cache lines as the queue cursors)

	// busyLaneAccum is the cumulative busy-lane count for this core alone
	// (the per-core counterpart of Coproc.busyLaneCycles); the telemetry
	// sampler diffs it at window boundaries into per-core occupancy. The
	// sleep mirror needs no update: quiescent windows have zero busy lanes.
	busyLaneAccum float64
}

// lastActiveBy returns the latest cycle before upTo with queued or in-flight
// work, the core's true completion time (the scalar core halts before the
// co-processor finishes its backlog). Entries join the in-flight tracker
// only at issue, so it held work at every cycle from an issue to its latest
// release maxRel, of which the last before upTo is min(upTo, maxRel)-1.
func (st *rowState) lastActiveBy(upTo uint64) uint64 {
	if m := min(upTo, st.inflight.maxRel); m > 0 {
		return max(st.lastActive, m-1)
	}
	return st.lastActive
}

// at returns the pool slot of stream position i (valid for head <= i < tail).
func (st *rowState) at(i int) *XInst { return &st.queue[i&queueMask] }

// zreg returns vector register r's lanes.
func (st *rowState) zreg(r isa.Reg) []float32 {
	w := len(st.z) / isa.NumZRegs
	return st.z[int(r)*w : int(r+1)*w]
}

// rowSet is a bitmap over the machine's core rows, indexed by core ID: a
// cluster's home rows, and the subsets of them its per-cycle walks visit.
type rowSet []uint64

func newRowSet(n int) rowSet { return make(rowSet, (n+63)/64) }

func (s rowSet) set(c int)      { s[c>>6] |= 1 << (c & 63) }
func (s rowSet) clear(c int)    { s[c>>6] &^= 1 << (c & 63) }
func (s rowSet) has(c int) bool { return s[c>>6]>>(c&63)&1 != 0 }

// next returns the first member at or after c, or 64*len(s) — past every
// row — when there is none.
func (s rowSet) next(c int) int {
	w := c >> 6
	if w >= len(s) {
		return len(s) << 6
	}
	if u := s[w] >> (c & 63); u != 0 {
		return c + bits.TrailingZeros64(u)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 | bits.TrailingZeros64(s[w])
		}
	}
	return len(s) << 6
}

// LaneEvent records one lane-management action, for the allocated-lanes
// timelines of Figures 2 and 14(b) and for trace export.
type LaneEvent struct {
	Cycle uint64
	Core  int
	// Kind is "repartition" (an <OI> write produced a new plan),
	// "reconfigure" (a successful <VL> write) or "reject".
	Kind string
	// VL is the configured length in granules after the event (for
	// reconfigure) or the requested length (for reject).
	VL int
	// Decisions snapshots every core's <decision> after the event.
	Decisions []int
}

// Coproc is the co-processor instance shared by all scalar cores.
type Coproc struct {
	cfg  Config
	name string
	tbl  *lanemgr.ResourceTbl
	mgr  *lanemgr.Manager
	vec  mem.SharedPort
	// vecProbe is vec's optional skip-ahead capability (nil when the port
	// cannot predict rejects; the sleep mirror then treats every pending
	// access as live).
	vecProbe mem.RetryProber
	data     *mem.Memory
	stats    *sim.Stats
	// cores holds every machine core's row, indexed by core ID and shared by
	// every cluster of a Complex; home marks the rows this instance hosts.
	// Every walk is bounded by home: a row is another cluster's business
	// until a migration moves it here.
	cores []*coreState
	home  rowSet

	// Hot-path counter cells, resolved once at construction (Stats.Counter
	// pointers are stable across Restore) so per-cycle bumps skip the
	// string-keyed map lookup.
	renameStallsCell *uint64
	mshrRetriesCell  *uint64
	drainWaitCell    *uint64

	// active and live are the subsets of home the per-cycle walks visit;
	// both are derived state, rebuilt on restore (see deriveRowSets).
	//   - active: the row's pool is non-empty. Transmit adds the row; Tick
	//     drops it once the row's pool has emptied.
	//   - live: active, plus rows still holding in-flight work, plus rows
	//     under a fault issue gate (a shared gate covers every home row). A
	//     row leaves at the first cycle boundary where none of that holds
	//     (see settle): from then on it can neither issue nor hold a
	//     resource, so the sleep mirror, the rename check and the MOB query
	//     skip it.
	// stormRows is SkipTicks' reusable set of retry-storming rows.
	active    rowSet
	live      rowSet
	stormRows rowSet

	// sleepStamp is the cycle of the last quiescent NextWake, whose scan
	// latched every live row's effects for the SkipTicks the engine issues
	// for the same cycle (the only way it calls SkipTicks).
	sleepStamp uint64

	respond ScalarResponder

	// Parking (park.go): parking enables it; slotFreed wakes a scalar core
	// parked on a full pool; parkedTicks counts the row ticks it elided,
	// host-side like the engine's skipped cycles, outside every digest.
	parking     bool
	slotFreed   func(core int)
	parkedTicks uint64

	// storms is the set of instances sharing this one's vector-cache port,
	// whose skipped retry storms replay together (see stormGroup); the
	// instance alone until NewComplex groups its clusters. stormFrom and
	// stormCount describe this instance's storms in the last skipped window.
	storms     *stormGroup
	stormFrom  uint64
	stormCount int

	coprocState

	// rotStart/rotLast cache the priority-rotation origin (now % Cores) so
	// consecutive ticks increment it instead of dividing. Invariant:
	// rotStart == rotLast % Cores, which stays true across restores, so no
	// checkpointing is needed.
	rotStart int
	rotLast  uint64

	// lanes is cfg.Lanes() as the busy-lane divisor, fixed at New so Tick
	// does not copy the whole Config through Lanes' value receiver.
	lanes float64

	// decArena backs the lane events' Decisions slices in chunks, so
	// logging does not allocate per event.
	decArena []int

	// probe is the observability hook (nil when the run is not observed;
	// every obs method is nil-receiver-safe).
	probe *obs.Probe
	// retireHists caches the per-core issue→retire latency histograms
	// (nil entries when unobserved; Observe is nil-receiver-safe). Resolved
	// once in SetProbe so the issue hot path never touches the registry map.
	retireHists []*obs.Histogram

	// laneSink, when set, receives every logged LaneEvent — the telemetry
	// event log's tap. Invoked only on lane-management actions, never on
	// the per-cycle path.
	laneSink func(LaneEvent)
}

// coprocState is a co-processor instance's checkpointed state besides its
// rows, its resource table and its lane manager's counter.
type coprocState struct {
	emsimdBusyUntil uint64 // LaneMgr plan-computation occupancy

	// busyLaneCycles accumulates the whole-array busy fraction for the
	// SIMD-utilization metric of §2.
	busyLaneCycles float64
	cycles         uint64

	// events is the lane-management log (bounded; see laneEventCap).
	events []LaneEvent

	// flt holds injected fault effects; nil on healthy runs, so the
	// fault hooks cost one pointer check on the hot path (see fault.go).
	flt *faultState

	// progress counts issued operations for the forward-progress watchdog.
	// A plain field, not a Stats counter: the registry must stay
	// bit-identical between watched and unwatched runs.
	progress uint64
}

// SetProbe attaches the observability probe (nil disables) and resolves the
// per-core retire-latency histograms once, so issue-time observations stay
// allocation-free.
func (cp *Coproc) SetProbe(p *obs.Probe) {
	cp.probe = p
	if cp.retireHists == nil {
		cp.retireHists = make([]*obs.Histogram, cp.cfg.Cores)
	}
	for c := range cp.retireHists {
		cp.retireHists[c] = p.Hist(obs.RetireHistName(c)) // nil when p is nil
	}
}

// SetLaneEventSink taps the lane-management event log: sink receives every
// LaneEvent logEvent records (after its Decisions snapshot is filled). Nil
// disables the tap.
func (cp *Coproc) SetLaneEventSink(sink func(LaneEvent)) { cp.laneSink = sink }

// laneEventCap bounds the event log (repartitions are rare; this is a
// safety net for pathological runs).
const laneEventCap = 1 << 16

func (cp *Coproc) logEvent(e LaneEvent) {
	if len(cp.events) >= laneEventCap {
		return
	}
	n := cp.cfg.Cores
	if len(cp.decArena) < n {
		cp.decArena = make([]int, 256*n)
	}
	e.Decisions, cp.decArena = cp.decArena[:n:n], cp.decArena[n:]
	for c := range e.Decisions {
		e.Decisions[c] = cp.tbl.Decision(c)
	}
	cp.events = append(cp.events, e)
	if cp.laneSink != nil {
		cp.laneSink(e)
	}
}

// LaneEvents returns the lane-management log in cycle order.
func (cp *Coproc) LaneEvents() []LaneEvent { return cp.events }

// New builds a co-processor over the given vector-cache port and functional
// memory, hosting one row per core. Stats must not be nil.
func New(cfg Config, vecPort mem.SharedPort, data *mem.Memory, model roofline.Model, stats *sim.Stats) *Coproc {
	cp := newCoproc(cfg, newRows(cfg), vecPort, data, model, stats)
	for c := range cp.cores {
		cp.home.set(c)
	}
	return cp
}

// newRows allocates a machine's rows, one per core.
func newRows(cfg Config) []*coreState {
	if cfg.Cores <= 0 || cfg.ExeBUs <= 0 {
		panic(fmt.Sprintf("coproc: bad config %+v", cfg))
	}
	rows := make([]*coreState, cfg.Cores)
	for c := range rows {
		st := &coreState{
			rowState: rowState{
				queue:      new([queueRing]XInst),
				z:          make([]float32, isa.NumZRegs*cfg.Lanes()),
				lastReject: -1,
			},
			sb: new(scoreboard),
		}
		// Pre-size the hold trackers to their architectural bounds so
		// steady-state Add never grows a backing array: LHQ/STQ are hard
		// caps, register holds cannot exceed the physical pool, and live
		// writeback holds are bounded by the queues plus a window's worth
		// of compute issues. Add drains a full tracker before it grows, so
		// expired holds never push it past these bounds.
		st.lhq.releases = make([]uint64, 0, cfg.LHQ)
		st.stq.releases = make([]uint64, 0, cfg.STQ)
		st.inflight.releases = make([]uint64, 0, window+cfg.LHQ+cfg.STQ)
		st.pool.issued.releases = make([]uint64, 0, cfg.PhysRegs)
		// Slot 0 is the pre-phase prologue; a slot per compiler phase
		// follows. Pre-sizing keeps addPhaseCompute off the allocator
		// when a late phase is first entered mid-run.
		phaseCap := cfg.MaxPhases + 1
		if phaseCap < 8 {
			phaseCap = 8
		}
		st.computeByPhase = make([]uint64, 0, phaseCap)
		rows[c] = st
	}
	return rows
}

// newCoproc builds an instance over the machine's rows, hosting none of them
// yet.
func newCoproc(cfg Config, rows []*coreState, vecPort mem.SharedPort, data *mem.Memory, model roofline.Model, stats *sim.Stats) *Coproc {
	tbl := lanemgr.NewResourceTbl(lanemgr.Topology{Clusters: 1, Cores: cfg.Cores, ExeBUs: cfg.ExeBUs})
	cp := &Coproc{
		cfg:       cfg,
		name:      "coproc",
		tbl:       tbl,
		mgr:       lanemgr.NewManager(model, tbl),
		vec:       vecPort,
		vecProbe:  probeOf(vecPort),
		data:      data,
		stats:     stats,
		cores:     rows,
		home:      newRowSet(cfg.Cores),
		active:    newRowSet(cfg.Cores),
		live:      newRowSet(cfg.Cores),
		stormRows: newRowSet(cfg.Cores),
		lanes:     float64(cfg.Lanes()),
	}
	cp.storms = &stormGroup{members: []*Coproc{cp}}
	cp.renameStallsCell = stats.Counter("coproc.rename.stalls")
	cp.mshrRetriesCell = stats.Counter("coproc.lsu.mshr_retries")
	cp.drainWaitCell = stats.Counter("coproc.drain_wait_cycles")
	if !cfg.Elastic && !cfg.SharedIssue {
		// Spatial policies pin each core's partition at reset; temporal
		// sharing (SharedIssue) leaves the table empty because every
		// core runs full width.
		if len(cfg.FixedVLs) != cfg.Cores {
			panic("coproc: non-elastic spatial config needs FixedVLs per core")
		}
		for c, vl := range cfg.FixedVLs {
			if !tbl.TryReconfigure(c, vl) {
				panic(fmt.Sprintf("coproc: fixed VL %d for core %d infeasible", vl, c))
			}
		}
	}
	return cp
}

// SetResponder wires the scalar-result return path.
func (cp *Coproc) SetResponder(r ScalarResponder) { cp.respond = r }

// SetSlotWaker wires the pool-slot wake: w is called with a core whose full
// instruction pool frees a slot, which ends the park of a scalar core whose
// transmit the full pool refused (see cpu.Core.SlotFreed).
func (cp *Coproc) SetSlotWaker(w func(core int)) { cp.slotFreed = w }

// Manager exposes the lane manager (for tests and reports).
func (cp *Coproc) Manager() *lanemgr.Manager { return cp.mgr }

// Tbl exposes the resource table.
func (cp *Coproc) Tbl() *lanemgr.ResourceTbl { return cp.tbl }

// VL returns core c's configured vector length in granules. Under temporal
// sharing (FTS) every instruction occupies the full-width data path, so the
// effective length is the whole array.
func (cp *Coproc) VL(c int) int {
	if cp.cfg.SharedIssue {
		return cp.cfg.ExeBUs
	}
	return cp.tbl.VL(c)
}

// ReadSysNow reads a system register combinationally — the speculative MRS
// transmission of §4.1.1 (reads of <decision>, <AL>, <VL>, <OI> do not wait
// for older SVE instructions).
func (cp *Coproc) ReadSysNow(c int, sys isa.SysReg) uint32 { return cp.tbl.ReadRaw(c, sys) }

// MemInFlight reports outstanding vector memory operations for core c — the
// scalar cores' MOB consults it before issuing scalar memory ops (Table 2,
// <SVE, Scalar> ordering).
func (cp *Coproc) MemInFlight(c int, now uint64) int {
	if !cp.live.has(c) {
		return 0 // nothing queued, nothing held
	}
	st := cp.cores[c]
	pending := 0
	for i := st.head; i < st.tail; i++ {
		if x := st.at(i); !x.issued && x.Op.IsVectorMem() {
			pending++
		}
	}
	return pending + st.lhq.Count(now) + st.stq.Count(now)
}

// TransmitStatus reports why a Transmit was refused.
type TransmitStatus uint8

// Transmit outcomes.
const (
	TransmitOK TransmitStatus = iota
	TransmitQueueFull
	// TransmitLinkDown: the CPU→coproc link dropped the transmission (fault
	// injection); the core retries next cycle, like a full pool.
	TransmitLinkDown
)

// Transmit enqueues an instruction into core c's pre-rename instruction
// pool, records its RAW dependencies and applies its functional semantics in
// program order. Only a full pool refuses the instruction (physical
// registers are allocated later, at rename). The instruction is copied once,
// into its pool slot; the caller keeps ownership of x.
func (cp *Coproc) Transmit(x *XInst) TransmitStatus {
	c := x.Core
	st := cp.cores[c]
	if st.tail-st.head >= queueCap {
		return TransmitQueueFull
	}
	// cp.cycles equals the current cycle here: cores tick before the
	// co-processor, so at cycle t the co-processor has processed exactly t
	// ticks when a core transmits.
	if cp.flt != nil && !cp.flt.linkAccept(c, cp.cycles) {
		return TransmitLinkDown
	}
	st.parkUntil, st.idle = 0, false // new work ends a park; the next tick is real
	slot := st.at(st.tail)
	*slot = *x
	slot.enq = cp.cycles
	slot.seq = uint64(st.tail) + 1
	switch {
	case slot.Op.IsEMSIMD():
		slot.kind = kindEMSIMD
	case slot.Op == isa.OpVStore:
		slot.kind = kindStore
	case slot.Op.IsVectorMem():
		slot.kind = kindMem
	default:
		slot.kind = kindCompute
	}
	if slot.kind != kindEMSIMD {
		cp.renameAndApply(slot, st)
	}
	st.tail++
	cp.active.set(c)
	cp.live.set(c)
	return TransmitOK
}

// renameTick advances core c's rename pointer in program order, allocating
// one physical register per destination-writing instruction. It stops at the
// window bound or when no register can be allocated — the renamer blocking
// of Figure 13, dominant on FTS where the full-width pool is shared by all
// cores.
func (cp *Coproc) renameTick(c int, now uint64) {
	st := cp.cores[c]
	for st.renamed < st.tail && st.renamed-st.head < window {
		x := st.at(st.renamed)
		if x.notBefore > now {
			// Still crossing the fabric: rename is in program order, so
			// nothing younger may be considered either. The wait shows up in
			// the ExeBU-wait attribution bucket, like any dispatch delay.
			cp.probe.Signal(c, obs.SigExeBUWait)
			return
		}
		if !x.Op.IsEMSIMD() && hasZDst(x.Op) {
			if !cp.canRename(c, now) {
				cp.probe.Signal(c, obs.SigRenameStall)
				st.renameStalls++
				*cp.renameStallsCell++
				return
			}
			st.pool.queued++
		}
		st.track(st.renamed)
		st.renamed++
	}
}

// canRename checks physical-register availability for core c. With a
// per-core namespace the core renames against its own 160-register RegBlk
// file. With the shared full-width pool (FTS) two limits apply: the global
// free list (total minus all cores' architectural contexts) and a per-core
// rename-buffer quota — one core's long-latency backlog cannot consume the
// entire free list, but the combined demand of co-running cores still
// overwhelms it (Figure 13).
// Fault injection shrinks the usable file: a failed RegBlk bank takes its
// registers out of both the per-core namespace and the shared free list.
func (cp *Coproc) canRename(c int, now uint64) bool {
	if !cp.cfg.SharedVRF {
		st := cp.cores[c]
		return cp.cfg.ArchRegs+st.pool.held(now) < cp.cfg.PhysRegs-st.regsCut
	}
	committed := cp.cfg.ArchRegs * cp.cfg.activeCores()
	phys := cp.cfg.PhysRegs
	if cp.flt != nil {
		phys -= cp.flt.regsCutTotal
	}
	free := phys - committed
	quota := free / cp.cfg.activeCores()
	if cp.cores[c].pool.held(now) >= quota {
		return false
	}
	total := 0 // rows outside live hold no registers
	for r := cp.live.next(0); r < len(cp.cores); r = cp.live.next(r + 1) {
		total += cp.cores[r].pool.held(now)
	}
	return committed+total < phys
}

// renameAndApply assigns RAW dependencies from the renamer's last-writer
// table and executes the instruction's value semantics against the
// architectural vector state (program order = transmit order). A producer
// that has already issued is resolved now, into depDone; positions below
// head have issued.
func (cp *Coproc) renameAndApply(x *XInst, st *coreState) {
	dep := func(r isa.Reg) uint64 {
		if r == isa.RegNone || int(r) >= len(st.lastWriter) {
			return 0
		}
		w := st.lastWriter[r]
		if q := int(w) - 1; q < st.head || st.at(q).issued {
			// No writer yet (q is -1, writerDone 0), or it has issued.
			x.depDone = max(x.depDone, st.writerDone[r])
			return 0
		}
		return w
	}
	switch x.Op {
	case isa.OpVLoad, isa.OpVDupI, isa.OpVDupX, isa.OpVInsX0:
		// No vector register sources (addresses and scalar payloads
		// were resolved at the core).
	case isa.OpVStore:
		x.dep1 = dep(x.Dst) // store data
	case isa.OpVFMla:
		x.dep1, x.dep2, x.dep3 = dep(x.Src1), dep(x.Src2), dep(x.Dst)
	case isa.OpVFAddV, isa.OpVMovX0, isa.OpVFNeg, isa.OpVFAbs, isa.OpVFSqrt:
		x.dep1 = dep(x.Src1)
	default:
		x.dep1, x.dep2 = dep(x.Src1), dep(x.Src2)
	}
	if hasZDst(x.Op) {
		st.lastWriter[x.Dst] = x.seq
	}
	cp.applyFunctional(x, st)
}

func hasZDst(op isa.Opcode) bool {
	switch op {
	case isa.OpVStore, isa.OpVMovX0:
		return false
	default:
		return true
	}
}

// PoolFull reports whether core c's instruction pool would refuse a
// Transmit this cycle — the predicate the scalar core's skip-ahead logic
// mirrors (a refused Transmit has no side effects, so a pool-full stall is a
// quiescent state for the core).
func (cp *Coproc) PoolFull(c int) bool {
	st := cp.cores[c]
	return st.tail-st.head >= queueCap
}

// QueueLen reports the occupancy of core c's instruction pool.
func (cp *Coproc) QueueLen(c int) int {
	st := cp.cores[c]
	return st.tail - st.head
}

// Name implements sim.Component.
func (cp *Coproc) Name() string { return cp.name }

// SetName renames the component for engine registration — a clustered
// machine registers each shard as "coproc0", "coproc1", … so engine dumps
// and checkpoints stay unambiguous. Must be called before registration.
func (cp *Coproc) SetName(name string) { cp.name = name }

// Tick implements sim.Component: one cycle of the co-processor.
func (cp *Coproc) Tick(now uint64) {
	em := 2 // EM-SIMD data path: 2 insts/cycle (Figure 5)
	// Rotate core priority every cycle so one core cannot monopolize
	// shared structures (MSHRs, cache ports) through tick ordering.
	// rotStart tracks now%n incrementally (rotStart == rotLast%n always,
	// so a stale pair after a checkpoint restore or a skip jump still
	// yields the correct start); the divide only runs on discontinuities.
	n := cp.cfg.Cores
	var start int
	if now == cp.rotLast+1 {
		start = cp.rotStart + 1
		if start >= n {
			start = 0
		}
	} else {
		start = int(now % uint64(n))
	}
	cp.rotStart, cp.rotLast = start, now
	// tickCore on an empty pool is a pure no-op, so the walk visits only
	// the active rows, in the rotation's order: start…n−1, then
	// 0…start−1. Each row accounts its own cycle (tickRow); busy-lane
	// values are whole numbers, so their sum is exact in any order. A row
	// outside active records nothing: its zero samples add nothing to its
	// timeline, and lastActiveBy derives its in-flight part.
	budget := issueBudget{compute: cp.cfg.ComputeIssue, mem: cp.cfg.MemIssue, emsimd: &em}
	totalBusy := 0.0
	for c := cp.active.next(start); c < n; c = cp.active.next(c + 1) {
		totalBusy += cp.tickRow(c, now, &budget)
	}
	for c := cp.active.next(0); c < start; c = cp.active.next(c + 1) {
		totalBusy += cp.tickRow(c, now, &budget)
	}
	cp.busyLaneCycles += totalBusy / cp.lanes
	cp.cycles++
	cp.settleIdle()
}

// settle drops row c from live when, from the current cycle boundary on, it
// can neither issue (its pool is empty) nor hold a resource (every in-flight
// release, and with it every LSU and register hold, is at or before it), and
// no fault gate covers it. Every live-row walk then skips it until its next
// Transmit.
func (cp *Coproc) settle(c int) {
	st := cp.cores[c]
	if st.head == st.tail && st.inflight.maxRel <= cp.cycles && !cp.gated(c) {
		cp.live.clear(c)
	}
}

// settleIdle settles every live row that is not active, at the end of each
// Tick and SkipTicks: live is then exactly what deriveRowSets computes at
// every cycle boundary, which is what lets RestoreCheckpoint rebuild it.
func (cp *Coproc) settleIdle() {
	if cp.flt != nil && cp.flt.sharedGate > 1 {
		return // a shared gate keeps every row live
	}
	for w, m := range cp.live {
		for idle := m &^ cp.active[w]; idle != 0; idle &= idle - 1 {
			cp.settle(w<<6 | bits.TrailingZeros64(idle))
		}
	}
}

// addPhaseCompute bumps the per-phase compute-issue counter (phase -1 maps
// to slot 0).
func (st *coreState) addPhaseCompute(phase int) {
	idx := phase + 1
	for len(st.computeByPhase) <= idx {
		st.computeByPhase = append(st.computeByPhase, 0)
	}
	st.computeByPhase[idx]++
}

// depReady reports whether the producer dependency seq names has completed.
// Its pool slot still holds it (see queueRing).
func (st *coreState) depReady(seq, now uint64) bool {
	if seq == 0 {
		return true
	}
	p := st.at(int(seq - 1))
	return p.issued && p.done <= now
}

func (x *XInst) depsReady(st *coreState, now uint64) bool {
	return x.depDone <= now && st.depReady(x.dep1, now) && st.depReady(x.dep2, now) && st.depReady(x.dep3, now)
}

// setDone records an issued instruction's completion cycle in its slot and,
// while it is still its register's last writer, in writerDone.
func (st *coreState) setDone(x *XInst, done uint64) {
	x.done = done
	if hasZDst(x.Op) && st.lastWriter[x.Dst] == x.seq {
		st.writerDone[x.Dst] = done
	}
}

// tickCore walks core c's issue scoreboard in age order and issues every
// ready instruction within the cycle budgets — the out-of-order dispatcher
// of Figure 5. Renaming is in-order: a physical-register shortage stalls the
// whole window (the Figure 13 effect on FTS). Under SharedIssue every core
// draws on the one cycle budget; otherwise each core's compute and memory
// slots start full.
func (cp *Coproc) tickCore(c int, now uint64, budget *issueBudget) {
	if !cp.cfg.SharedIssue {
		budget.compute, budget.mem = cp.cfg.ComputeIssue, cp.cfg.MemIssue
	}
	st := cp.cores[c]
	for st.head < st.tail && st.at(st.head).issued {
		st.head++
	}
	cp.renameTick(c, now)
	// Fault-injected issue gates (Private victim serialization, FTS
	// shared-structure stalls) close the whole issue stage on off cycles.
	if cp.flt != nil && !cp.flt.issueAllowed(c, now) {
		if st.head < st.tail {
			cp.probe.Signal(c, obs.SigExeBUWait)
		}
		return
	}
	sb, q := st.sb, st.queue
	end := st.renamed
	// Armed computes are walked only once the earliest of them can be
	// ready (minReady lower-bounds their ready cycles; arming during the
	// walk lowers it). A walk that passes all of them re-derives the bound.
	rederive := budget.compute > 0 && now >= sb.minReady
	if rederive {
		sb.minReady = math.MaxUint64
	}
	// A waiting compute the scan reaches with compute budget left raises
	// the ExeBU-wait signal: armed ones as the walk passes them, the rest
	// when the oldest waiting compute sits below horizon — where the
	// compute budget ran out or an EM-SIMD fence stopped the scan.
	horizon := end
	if budget.compute == 0 {
		horizon = st.head
	}
	memBlocked := false   // LHQ/MSHR structural stall: no younger memory op may issue
	storeBlocked := false // stores issue in order among themselves
scan:
	for p := st.head; ; p++ {
		computes := budget.compute > 0 && (rederive || now >= sb.minReady)
		memOpen := !memBlocked && budget.mem > 0
		p = sb.next(p, end, open(computes), open(memOpen), open(memOpen && !storeBlocked))
		if p == end {
			break
		}
		s := p & queueMask
		if sb.compute.has(s) {
			if r := sb.ready[s]; r > now {
				sb.minReady = min(sb.minReady, r)
				cp.probe.Signal(c, obs.SigExeBUWait)
				continue
			}
			cp.issueCompute(c, &q[s], now)
			st.issue(s)
			cp.progress++
			if budget.compute--; budget.compute == 0 {
				horizon = p
				if rederive {
					sb.minReady = 0 // younger armed computes went unexamined
				}
			}
			continue
		}
		x := &q[s]
		if x.kind == kindEMSIMD {
			// The EM-SIMD path is in-order and fences the window:
			// nothing younger issues past an unexecuted EM-SIMD
			// instruction.
			if p != st.head || *budget.emsimd == 0 || !cp.execEMSIMD(c, x, now) {
				horizon = min(horizon, p)
				if rederive {
					sb.minReady = 0 // armed computes past the fence went unexamined
				}
				break scan
			}
			*budget.emsimd--
			st.issue(s)
			cp.progress++
			st.head++
			continue
		}
		switch cp.issueMem(c, x, now) {
		case issueOK:
			budget.mem--
			st.issue(s)
			cp.progress++
		case issueStructural:
			memBlocked = true
		case issueDataWait:
			storeBlocked = true
		}
	}
	if cp.probe != nil && sb.firstWaiting(st.head, horizon) < horizon {
		cp.probe.Signal(c, obs.SigExeBUWait)
	}
}

type issueStatus uint8

const (
	issueOK       issueStatus = iota
	issueDataWait             // store data not ready
	issueStructural
)

// issuePhys moves a renamed destination register from the queued state to
// the issued state, to be released at writeback.
func (cp *Coproc) issuePhys(c int, now, release uint64) {
	cp.cores[c].pool.queued--
	cp.cores[c].pool.issued.Add(now, release)
}

func (cp *Coproc) latFor(op isa.Opcode) uint64 {
	switch op {
	case isa.OpVFDiv, isa.OpVFSqrt:
		return cp.cfg.DivLat
	case isa.OpVIAdd, isa.OpVISub, isa.OpVIAnd, isa.OpVIOr, isa.OpVIXor,
		isa.OpVIShl, isa.OpVIShr, isa.OpVIMax, isa.OpVIMin:
		return cp.cfg.IntLat
	}
	return cp.cfg.ComputeLat
}

// issueCompute issues one dependence-ready SIMD compute micro-op (every
// granule of the core's partition receives the same µop; each ExeBU has two
// pipes, so the busy-lane accounting charges half the lanes per instruction,
// saturating at two issues per cycle).
func (cp *Coproc) issueCompute(c int, x *XInst, now uint64) {
	st := cp.cores[c]
	cp.probe.Signal(c, obs.SigVecIssue)
	done := now + cp.latFor(x.Op)
	if cp.retireHists != nil {
		cp.retireHists[c].Observe(done - x.enq)
	}
	if hasZDst(x.Op) {
		cp.issuePhys(c, now, done)
	}
	st.setDone(x, done)
	st.inflight.Add(now, done)
	st.computeIssued++
	st.addPhaseCompute(x.Phase)
	if x.Op == isa.OpVMovX0 && cp.respond != nil {
		cp.respond(c, x.XDst, x.respVal, done+cp.cfg.EMSIMDLat)
	}
	st.busy = min(st.busy+2*float64(x.Width), 4*float64(x.Width))
}

// issueMem issues one vector load or store micro-op through the LSU.
func (cp *Coproc) issueMem(c int, x *XInst, now uint64) issueStatus {
	st := cp.cores[c]
	size := 4 * x.Active
	if size == 0 {
		// Fully predicated off: completes instantly.
		if hasZDst(x.Op) {
			cp.issuePhys(c, now, now)
		}
		st.setDone(x, now)
		cp.probe.Signal(c, obs.SigVecIssue)
		if cp.retireHists != nil {
			cp.retireHists[c].Observe(now - x.enq)
		}
		st.memIssued++
		return issueOK
	}
	if x.Op == isa.OpVLoad {
		if st.lhq.Count(now) >= cp.cfg.LHQ {
			cp.probe.Signal(c, obs.SigLSUWait)
			return issueStructural
		}
		done, accepted := cp.vec.AccessFrom(now, x.Addr, size, false, c)
		if !accepted {
			cp.probe.Signal(c, obs.SigMemBW)
			st.mshrRetries++
			*cp.mshrRetriesCell++
			return issueStructural
		}
		cp.issuePhys(c, now, done)
		st.setDone(x, done)
		st.lhq.Add(now, done)
		st.inflight.Add(now, done)
		if cp.retireHists != nil {
			cp.retireHists[c].Observe(done - x.enq)
		}
	} else { // store
		if st.stq.Count(now) >= cp.cfg.STQ {
			cp.probe.Signal(c, obs.SigLSUWait)
			return issueStructural
		}
		if !x.depsReady(st, now) { // store data
			cp.probe.Signal(c, obs.SigLSUWait)
			return issueDataWait
		}
		done, accepted := cp.vec.AccessFrom(now, x.Addr, size, true, c)
		if !accepted {
			cp.probe.Signal(c, obs.SigMemBW)
			st.mshrRetries++
			*cp.mshrRetriesCell++
			return issueStructural
		}
		st.setDone(x, done)
		st.stq.Add(now, done)
		st.inflight.Add(now, done)
		if cp.retireHists != nil {
			cp.retireHists[c].Observe(done - x.enq)
		}
	}
	cp.probe.Signal(c, obs.SigVecIssue)
	st.memIssued++
	return issueOK
}

// Snapshot is a read-only copy of one core's co-processor counters.
type Snapshot struct {
	ComputeIssued  uint64
	MemIssued      uint64
	RenameStalls   uint64
	MSHRRetries    uint64
	DrainWait      uint64
	ComputeByPhase []uint64 // index 0 = outside any phase, i+1 = phase i
}

// CoreSnapshot returns core c's counters.
func (cp *Coproc) CoreSnapshot(c int) Snapshot {
	st := cp.cores[c]
	phases := make([]uint64, len(st.computeByPhase))
	copy(phases, st.computeByPhase)
	return Snapshot{
		ComputeIssued:  st.computeIssued,
		MemIssued:      st.memIssued,
		RenameStalls:   st.renameStalls,
		MSHRRetries:    st.mshrRetries,
		DrainWait:      st.drainWait,
		ComputeByPhase: phases,
	}
}

// Utilization returns the paper's SIMD_util over all cycles simulated so
// far: the mean fraction of busy lanes across the whole array (§2).
func (cp *Coproc) Utilization() float64 {
	if cp.cycles == 0 {
		return 0
	}
	return cp.busyLaneCycles / float64(cp.cycles)
}

// Cycles returns how many cycles the co-processor has simulated.
func (cp *Coproc) Cycles() uint64 { return cp.cycles }

// Quiescent reports whether core c has no queued or in-flight work.
func (cp *Coproc) Quiescent(c int, now uint64) bool {
	st := cp.cores[c]
	return st.head >= st.tail && st.inflight.Count(now) == 0
}

// LastActive returns the latest cycle core c had queued or in-flight work.
func (cp *Coproc) LastActive(c int) uint64 { return cp.cores[c].lastActiveBy(cp.cycles) }

// Z returns the functional value of lane i of register r on core c (tests).
func (cp *Coproc) Z(c int, r isa.Reg, i int) float32 { return cp.cores[c].zreg(r)[i] }

// BusyTimeline returns core c's average busy lanes per 1000-cycle bucket
// (Figures 2 and 14(b)).
func (cp *Coproc) BusyTimeline(c int) []float64 { return cp.cores[c].busyTimeline.Points(cp.cycles) }

// ComputeIssued returns the number of SIMD compute instructions core c has
// issued (the numerator of the paper's SIMD issue rate).
func (cp *Coproc) ComputeIssued(c int) uint64 { return cp.cores[c].computeIssued }

// MemIssued returns the number of vector memory instructions core c has
// issued.
func (cp *Coproc) MemIssued(c int) uint64 { return cp.cores[c].memIssued }

// RenameStalls returns the cycles core c's rename stage stalled on physical
// registers (Figure 13's metric, per core).
func (cp *Coproc) RenameStalls(c int) uint64 { return cp.cores[c].renameStalls }

// BusyLaneCycles returns core c's cumulative busy-lane count (lane·cycles);
// the telemetry sampler diffs it at window boundaries into occupancy.
func (cp *Coproc) BusyLaneCycles(c int) float64 { return cp.cores[c].busyLaneAccum }

// DrainWaitCycles returns cycles core c's MSR <VL> spent waiting for its
// pipeline to drain (Figure 15's reconfiguration overhead).
func (cp *Coproc) DrainWaitCycles(c int) uint64 { return cp.cores[c].drainWait }

// SaveVecState copies core c's architectural vector registers, for OS
// context switching (§5). The caller must ensure quiescence.
func (cp *Coproc) SaveVecState(c int) []float32 {
	return cp.CopyVecState(c, nil)
}

// CopyVecState is SaveVecState into a caller-owned buffer: dst's backing
// array is reused when it is large enough (a task's repeated preemptions then
// cost no allocation), and the possibly re-allocated buffer is returned.
func (cp *Coproc) CopyVecState(c int, dst []float32) []float32 {
	z := cp.cores[c].z
	dst = slices.Grow(dst[:0], len(z))[:len(z)]
	copy(dst, z)
	return dst
}

// RestoreVecState installs previously saved vector registers on core c (nil
// installs all zeros).
func (cp *Coproc) RestoreVecState(c int, z []float32) {
	st := cp.cores[c]
	n := copy(st.z, z)
	clear(st.z[n:])
	cp.unpark(c)
}
