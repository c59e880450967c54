// Package arch assembles complete simulated systems for the four SIMD
// architectures of Figure 1 and runs co-scheduled workloads on them:
//
//	Private — core-private SIMD lanes (Figure 1(a), e.g. Intel Xeon)
//	FTS     — temporal sharing of the full array (Figure 1(b), e.g. Apple M1)
//	VLS     — static spatial sharing (Figure 1(c))
//	Occamy  — elastic spatial sharing (Figure 1(d), this paper)
//
// All four share the same scalar cores, memory hierarchy and co-processor
// structure; only the sharing policy (vector lengths, issue arbitration, VRF
// namespace, EM-SIMD enablement) differs, mirroring §7.1's "same amount of
// SIMD resources for fair comparison".
package arch

import (
	"fmt"
	"math"

	"occamy/internal/compiler"
	"occamy/internal/coproc"
	"occamy/internal/cpu"
	"occamy/internal/fault"
	"occamy/internal/isa"
	"occamy/internal/lanemgr"
	"occamy/internal/mem"
	"occamy/internal/obs"
	"occamy/internal/roofline"
	"occamy/internal/sim"
	"occamy/internal/telemetry"
	"occamy/internal/workload"
)

// Kind selects the sharing architecture.
type Kind uint8

// The four architectures of Figure 1.
const (
	Private Kind = iota
	FTS
	VLS
	Occamy
)

// Kinds lists all four, in the paper's presentation order.
var Kinds = []Kind{Private, FTS, VLS, Occamy}

func (k Kind) String() string {
	switch k {
	case Private:
		return "Private"
	case FTS:
		return "FTS"
	case VLS:
		return "VLS"
	case Occamy:
		return "Occamy"
	}
	return "Kind?"
}

// Options tunes a system build.
type Options struct {
	// ExeBUs overrides the granule count (default: 4 per core = Table 4's
	// 32 lanes for two cores).
	ExeBUs int
	// MonitorPeriod is passed to the compiler (Occamy only).
	MonitorPeriod int
	// DefaultVL is the compiler-selected prologue default (Occamy only).
	DefaultVL int
	// Seed initializes workload data.
	Seed uint64
	// Model overrides the roofline model used by the lane manager and the
	// VLS static planner.
	Model *roofline.Model
	// FTSPhysRegs overrides the shared physical register pool size for
	// FTS (ablation; default coproc.DefaultConfig().PhysRegs).
	FTSPhysRegs int
	// StaticVLs overrides VLS's roofline-derived partition (granules per
	// core); used by the Figure 14(a) fixed-lane sweeps.
	StaticVLs []int
	// Machine overrides selected hardware parameters (nil = Table 4).
	Machine *MachineTuning
	// Obs selects observability (cycle attribution, histograms, Perfetto
	// trace). The zero value disables it entirely: no probe is built and
	// the hardware models keep nil probe pointers. A Sink makes the run's
	// one trace: the cores' phase slices, the co-processor's drain slices
	// and the telemetry sampler's windows (counter tracks) and events
	// (instants); a sink therefore also builds a sampler, at the default
	// window unless Telemetry sets one.
	Obs obs.Options
	// LegacyTick forces the every-cycle simulation path, disabling the
	// engine's skip-ahead fast-forwarding. Results, telemetry and traces
	// are bit-identical either way (enforced by the engine differential
	// tests); the switch exists as the differential oracle.
	LegacyTick bool
	// Faults schedules deterministic fault injections (internal/fault).
	// A non-empty list registers the injector; faulted runs skip ahead
	// like fault-free ones (the injector wakes the engine at every
	// scheduled event and holds it live through a recovery).
	Faults []fault.Fault
	// WireInjector registers the fault injector (and the architecture's
	// fault controller) even when Faults is empty, so a checkpointed run
	// can swap schedules in later with SetFaultSchedule. A quiet injector
	// leaves results unchanged, and a run forked from its checkpoints with
	// a new schedule is bit-identical to a straight run of that schedule.
	WireInjector bool
	// StallCycles arms the engine's forward-progress watchdog: a run where
	// no component makes progress for this many cycles aborts with a
	// sim.StallError (wrapped in a DiagError carrying the machine dump).
	// 0 leaves the watchdog disarmed.
	StallCycles uint64
	// Telemetry, when non-nil, builds a windowed time-series sampler
	// (internal/telemetry) registered after the probe so each window sees
	// fully attributed cycles. It implies Obs.Attribution (the sampler
	// reads the per-core bucket deltas). The sampler is a sim.Sleeper, so
	// skip-ahead stays enabled; boundaries become forced wake points. With
	// an Obs.Sink it also sets the trace's window; nil there means the
	// default window.
	Telemetry *telemetry.Config
	// Topology builds a clustered machine: Topology.Clusters co-processor
	// instances, each owning an even shard of ExeBUs, reached through the
	// routed CPU→coproc fabric (coproc.Complex) with per-hop latency and
	// per-cluster acceptance bandwidth. nil keeps the flat single-instance
	// wiring. A 1-cluster topology with zero hop latency is bit-identical
	// to nil (differential-tested): the routed path adds structure, never
	// timing, until the topology says otherwise.
	Topology *coproc.Topology
}

// MachineTuning overrides hardware parameters relative to the Table 4
// defaults; zero fields keep the default. It exists so experiments (and the
// occamy-sim -machine flag) can explore the design space without rebuilding.
type MachineTuning struct {
	// Memory system.
	DRAMLatencyCycles uint64  `json:"dram_latency_cycles,omitempty"`
	DRAMBytesPerCycle float64 `json:"dram_bytes_per_cycle,omitempty"`
	VecCacheKB        int     `json:"vec_cache_kb,omitempty"`
	VecPrefetchDegree int     `json:"vec_prefetch_degree,omitempty"`
	L2MB              int     `json:"l2_mb,omitempty"`
	// Co-processor.
	PhysRegs     int    `json:"phys_regs,omitempty"`
	LHQ          int    `json:"lhq,omitempty"`
	STQ          int    `json:"stq,omitempty"`
	ComputeLat   uint64 `json:"compute_lat,omitempty"`
	DivLat       uint64 `json:"div_lat,omitempty"`
	ComputeIssue int    `json:"compute_issue,omitempty"`
	MemIssue     int    `json:"mem_issue,omitempty"`
}

// TuningError reports a MachineTuning field outside the range the machine
// can realize.
type TuningError struct {
	Field string // the JSON key, e.g. "lhq"
	Value any    // the rejected value
	Limit string // the range or rule it broke, e.g. "<= 1024"
}

func (e *TuningError) Error() string {
	return fmt.Sprintf("arch: %s = %v: must be %s", e.Field, e.Value, e.Limit)
}

// maxLatency bounds the latency overrides, in cycles, far below where
// now+lat would wrap.
const maxLatency = 1 << 20

// Validate rejects overrides the machine cannot realize with a *TuningError.
// No field may be negative or past its maximum below: larger queues,
// register files and caches cannot be allocated, and longer latencies break
// the cycle arithmetic. Capacities must keep power-of-two set counts (both
// caches use 64 B lines, mem.LineBytes; the vector cache is 8-way and the
// L2 16-way, so VecCacheKB and L2MB must be powers of two), the
// physical-register file must leave rename headroom over the 32
// architectural registers, and the DRAM bandwidth must be finite and at
// least 1/64 B/cycle, which keeps a line fill under 2^12 cycles.
func (m *MachineTuning) Validate() error {
	if m == nil {
		return nil
	}
	for _, f := range []struct {
		field       string
		v, min, max int // min applies to a set (non-zero) field
		pow2        bool
	}{
		{"vec_cache_kb", m.VecCacheKB, 0, 16 << 10, true},
		{"vec_prefetch_degree", m.VecPrefetchDegree, 0, 64, false},
		{"l2_mb", m.L2MB, 0, 128, true},
		{"phys_regs", m.PhysRegs, 64, 4096, false},
		{"lhq", m.LHQ, 0, 1024, false},
		{"stq", m.STQ, 0, 1024, false},
		{"compute_issue", m.ComputeIssue, 0, 64, false},
		{"mem_issue", m.MemIssue, 0, 64, false},
	} {
		switch {
		case f.v < 0:
			return &TuningError{f.field, f.v, ">= 0"}
		case f.v > f.max:
			return &TuningError{f.field, f.v, fmt.Sprintf("<= %d", f.max)}
		case f.v > 0 && f.v < f.min:
			return &TuningError{f.field, f.v, fmt.Sprintf(">= %d", f.min)}
		case f.pow2 && f.v&(f.v-1) != 0:
			return &TuningError{f.field, f.v, "a power of two"}
		}
	}
	for _, f := range []struct {
		field string
		v     uint64
	}{
		{"dram_latency_cycles", m.DRAMLatencyCycles},
		{"compute_lat", m.ComputeLat},
		{"div_lat", m.DivLat},
	} {
		if f.v > maxLatency {
			return &TuningError{f.field, f.v, fmt.Sprintf("<= %d cycles", maxLatency)}
		}
	}
	if bw := m.DRAMBytesPerCycle; bw != 0 && !(bw >= 1.0/64 && !math.IsInf(bw, 1)) {
		return &TuningError{"dram_bytes_per_cycle", bw, "finite and >= 1/64"}
	}
	return nil
}

// apply merges the non-zero overrides into the hierarchy and co-processor
// configurations.
func (m *MachineTuning) apply(h *mem.HierarchyConfig, c *coproc.Config) {
	if m == nil {
		return
	}
	if m.DRAMLatencyCycles > 0 {
		h.DRAM.LatencyCycles = m.DRAMLatencyCycles
	}
	if m.DRAMBytesPerCycle > 0 {
		h.DRAM.BytesPerCycle = m.DRAMBytesPerCycle
	}
	if m.VecCacheKB > 0 {
		h.VecCache.SizeBytes = m.VecCacheKB << 10
	}
	if m.VecPrefetchDegree > 0 {
		h.VecCache.PrefetchDegree = m.VecPrefetchDegree
	}
	if m.L2MB > 0 {
		h.L2.SizeBytes = m.L2MB << 20
	}
	if m.PhysRegs > 0 {
		c.PhysRegs = m.PhysRegs
	}
	if m.LHQ > 0 {
		c.LHQ = m.LHQ
	}
	if m.STQ > 0 {
		c.STQ = m.STQ
	}
	if m.ComputeLat > 0 {
		c.ComputeLat = m.ComputeLat
	}
	if m.DivLat > 0 {
		c.DivLat = m.DivLat
	}
	if m.ComputeIssue > 0 {
		c.ComputeIssue = m.ComputeIssue
	}
	if m.MemIssue > 0 {
		c.MemIssue = m.MemIssue
	}
}

// System is a fully wired simulated machine executing one co-schedule.
type System struct {
	Kind   Kind
	Engine *sim.Engine
	Hier   *mem.Hierarchy
	// Clusters lists every co-processor instance in fabric order; len 1 on
	// a flat build.
	Clusters []*coproc.Coproc
	// Cplx is the machine-wide co-processor view: the routed Complex over
	// Clusters. Every build has one (a flat machine wraps its single
	// instance in a 1-cluster complex) so reports, diagnostics, telemetry
	// and the OS scheduler reach a core's home cluster uniformly. The
	// scalar cores are wired through the Complex — fabric delays,
	// bandwidth, migration — only when Options.Topology was non-nil; a
	// flat build's cores transmit straight to Clusters[0].
	Cplx     *coproc.Complex
	Cores    []*cpu.Core
	Compiled []*compiler.Compiled
	Sched    workload.CoSchedule
	Stats    *sim.Stats
	// StaticVLs records the VLS partition (granules per core) for reports.
	StaticVLs []int
	// Probe is the observability hub; nil when Options.Obs was zero.
	Probe *obs.Probe
	// Tele is the telemetry sampler; nil when Options.Telemetry was nil.
	// A nil *Sampler is safe to use (every method no-ops), so callers can
	// wire it unconditionally.
	Tele *telemetry.Sampler
	// faults is the fault controller; nil when Options.Faults was empty
	// and WireInjector was off.
	faults *faultCtl
	// inj is the registered fault injector (nil alongside faults).
	inj *fault.Injector
	// seed is kept for deterministic victim resolution in SetFaultSchedule.
	seed uint64
}

// Build compiles the co-schedule's workloads for kind and wires the system.
func Build(kind Kind, sched workload.CoSchedule, opts Options) (*System, error) {
	n := sched.Cores()
	if n == 0 {
		return nil, fmt.Errorf("arch: empty co-schedule")
	}
	if opts.ExeBUs == 0 {
		opts.ExeBUs = 4 * n
	}
	model := roofline.Default()
	if opts.Model != nil {
		model = *opts.Model
	}

	if err := opts.Machine.Validate(); err != nil {
		return nil, err
	}

	topo := coproc.Topology{Clusters: 1}
	if opts.Topology != nil {
		topo = *opts.Topology
		if err := topo.Validate(n, opts.ExeBUs); err != nil {
			return nil, fmt.Errorf("arch: %w", err)
		}
	}
	clusters := topo.Clusters

	for i, f := range opts.Faults {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("arch: fault %d: %w", i, err)
		}
		if f.Core != fault.AnyCore && f.Core >= n {
			return nil, fmt.Errorf("arch: fault %d: core %d out of range (%d cores)", i, f.Core, n)
		}
		if f.Cluster != fault.AnyCluster && (f.Cluster < 0 || f.Cluster >= clusters) {
			return nil, fmt.Errorf("arch: fault %d: cluster %d out of range (topology has %d cluster(s))",
				i, f.Cluster, clusters)
		}
		if opts.Topology != nil && f.Kind == fault.ExeBU && f.Count > opts.ExeBUs/clusters {
			return nil, fmt.Errorf("arch: fault %d: exebu count %d exceeds the %d-unit cluster shard",
				i, f.Count, opts.ExeBUs/clusters)
		}
	}

	engine := sim.NewEngine()
	stats := engine.Stats()
	hcfg := mem.DefaultHierarchyConfig(n)
	ccfg := coproc.DefaultConfig(n)
	opts.Machine.apply(&hcfg, &ccfg)
	if err := hcfg.Validate(); err != nil {
		return nil, err
	}
	hier := mem.NewHierarchy(hcfg, stats)
	ccfg.ExeBUs = opts.ExeBUs
	for _, w := range sched.W {
		if len(w.Phases) > ccfg.MaxPhases {
			ccfg.MaxPhases = len(w.Phases)
		}
	}
	group := n / clusters
	var staticVLs []int
	switch kind {
	case Private:
		ccfg.Elastic = false
		ccfg.FixedVLs = make([]int, n)
		for c := range ccfg.FixedVLs {
			ccfg.FixedVLs[c] = opts.ExeBUs / n
		}
		staticVLs = ccfg.FixedVLs
	case FTS:
		ccfg.Elastic = false
		ccfg.SharedIssue = true
		ccfg.SharedVRF = true
		// The Table 4 shared pool (160 registers) serves up to 4 tenants;
		// larger machines scale it proportionally, keeping the same
		// registers-per-tenant ratio so FTS stays buildable — and fairly
		// provisioned — at 64 cores.
		if ccfg.PhysRegs < 40*n {
			ccfg.PhysRegs = 40 * n
		}
		if opts.FTSPhysRegs > 0 {
			ccfg.PhysRegs = opts.FTSPhysRegs
		}
	case VLS:
		ccfg.Elastic = false
		switch {
		case len(opts.StaticVLs) == n:
			ccfg.FixedVLs = opts.StaticVLs
		case clusters == 1:
			ccfg.FixedVLs = staticPlan(model, sched, opts.ExeBUs)
		default:
			// One static plan per cluster over the cores it hosts,
			// scattered into the machine-wide vector.
			ccfg.FixedVLs = make([]int, n)
			for k := 0; k < clusters; k++ {
				sub := workload.CoSchedule{Name: sched.Name, W: sched.W[k*group : (k+1)*group]}
				copy(ccfg.FixedVLs[k*group:], staticPlan(model, sub, opts.ExeBUs/clusters))
			}
		}
		staticVLs = ccfg.FixedVLs
	case Occamy:
		ccfg.Elastic = true
	}

	var cls []*coproc.Coproc
	if opts.Topology == nil {
		if err := ccfg.Validate(); err != nil {
			return nil, err
		}
		cls = []*coproc.Coproc{coproc.New(ccfg, hier.VecCache, hier.Mem, model, stats)}
	} else {
		// Each cluster hosts every core's row (global IDs index every
		// shard; foreign rows stay inert) but owns only its ExeBU shard,
		// and shared-structure arithmetic divides by its resident tenants.
		for k := 0; k < clusters; k++ {
			kcfg := ccfg
			kcfg.ExeBUs = opts.ExeBUs / clusters
			kcfg.ActiveCores = group
			if kcfg.SharedVRF {
				kcfg.PhysRegs = ccfg.PhysRegs / clusters
			}
			if len(ccfg.FixedVLs) > 0 {
				vls := make([]int, n)
				copy(vls[k*group:(k+1)*group], ccfg.FixedVLs[k*group:(k+1)*group])
				kcfg.FixedVLs = vls
			}
			if err := kcfg.Validate(); err != nil {
				return nil, fmt.Errorf("arch: cluster %d: %w", k, err)
			}
			cp := coproc.New(kcfg, hier.VecCache, hier.Mem, model, stats)
			cp.SetName(fmt.Sprintf("coproc%d", k))
			cls = append(cls, cp)
		}
	}
	cplx := coproc.NewComplex(topo, cls)

	mode := compiler.ModeFixed
	if kind == Occamy {
		mode = compiler.ModeElastic
	}
	sys := &System{
		Kind: kind, Engine: engine, Hier: hier, Clusters: cls, Cplx: cplx,
		Sched: sched, Stats: stats, StaticVLs: staticVLs,
	}
	var port cpu.CoprocPort = cls[0]
	if opts.Topology != nil {
		port = cplx
	}
	for c, w := range sched.W {
		comp, err := compiler.Compile(w, compiler.Options{
			Mode:          mode,
			MonitorPeriod: opts.MonitorPeriod,
			DefaultVL:     opts.DefaultVL,
			BaseAddr:      uint64(c+1) << 32,
		})
		if err != nil {
			return nil, fmt.Errorf("arch: compile %s for core %d: %w", w.Name, c, err)
		}
		comp.InitData(hier.Mem, opts.Seed+uint64(c)*7919+1)
		core := cpu.New(c, cpu.DefaultConfig(), comp.Program, port, hier.L1D[c], hier.Mem, stats)
		sys.Compiled = append(sys.Compiled, comp)
		sys.Cores = append(sys.Cores, core)
		engine.Register(core)
	}
	for _, ci := range cls {
		engine.Register(ci)
		ci.SetResponder(func(core int, reg isa.Reg, val uint64, ready uint64) {
			sys.Cores[core].HandleResult(core, reg, val, ready)
		})
	}
	sys.seed = opts.Seed
	if len(opts.Faults) > 0 || opts.WireInjector {
		// The injector ticks after the co-processor (faults land on cycle
		// boundaries, visible from the next cycle on) and before the probe.
		sys.faults = newFaultCtl(sys)
		sys.inj = fault.NewInjector(opts.Faults, n, opts.Seed, sys.faults)
		engine.Register(sys.inj)
	}
	if opts.Telemetry == nil && opts.Obs.Sink != nil {
		// A traced run's counter tracks and instants come from the sampler.
		opts.Telemetry = &telemetry.Config{}
	}
	if opts.Telemetry != nil {
		// The sampler diffs per-core cycle buckets and retire-latency
		// histograms; both live on the probe.
		opts.Obs.Attribution = true
	}
	if opts.Obs.Enabled() {
		probe := obs.NewProbe(n, opts.Obs.Sink)
		for _, core := range sys.Cores {
			core.SetProbe(probe)
		}
		for _, ci := range cls {
			ci.SetProbe(probe)
		}
		hier.SetProbe(probe)
		// The probe must tick last so it sees the whole cycle's signals.
		engine.Register(probe)
		if s := probe.Sink(); s != nil {
			for c := range sys.Cores {
				s.EmitProcessName(c, fmt.Sprintf("core%d [%s]", c, sched.W[c].Name))
				s.EmitThreadName(c, obs.TidPhases, "phases")
				s.EmitThreadName(c, obs.TidEMSIMD, "em-simd")
			}
		}
		sys.Probe = probe
	}
	if opts.Telemetry != nil {
		// The sampler reads the Complex's machine-wide aggregates (on a flat
		// build, exactly the single instance's values) and one table series
		// per shard.
		srcs := telemetry.Sources{
			Cp:    cplx,
			Tbl:   cplx,
			Probe: sys.Probe,
			Stats: stats,
			Lanes: coproc.LanesPerGranule * opts.ExeBUs,
		}
		for _, ci := range cls {
			srcs.Tables = append(srcs.Tables, ci.Tbl())
		}
		for _, core := range sys.Cores {
			srcs.Cores = append(srcs.Cores, core)
		}
		tele := telemetry.NewSampler(*opts.Telemetry, srcs)
		sys.Tele = tele
		// Registered after the probe: a window closing at cycle k sees the
		// probe's attribution for every cycle up to and including k.
		engine.Register(tele)
		sink := func(e coproc.LaneEvent) {
			kind := telemetry.EvLaneReject
			switch e.Kind {
			case "repartition":
				kind = telemetry.EvLaneRepartition
			case "reconfigure":
				kind = telemetry.EvLaneReconfigure
			}
			tele.Emit(e.Cycle, kind, e.Core, uint64(e.VL), "")
		}
		for _, ci := range cls {
			ci.SetLaneEventSink(sink)
		}
	}
	if opts.StallCycles > 0 {
		engine.SetWatchdog(opts.StallCycles)
	}
	// Traced and faulted runs skip ahead like any other: trace counters
	// come from the sampler, whose window boundaries are forced wakes, and
	// the injector is a Sleeper that wakes the engine at every scheduled
	// event and pins it live while a recovery is in flight (see
	// fault.Injector.NextWake).
	engine.SetSkipAhead(!opts.LegacyTick)
	return sys, nil
}

// SetFaultSchedule replaces the wired injector's fault schedule in place,
// rewinding its cursors — the fork point for checkpointed sweeps (build with
// WireInjector, warm up, Checkpoint, then per point RestoreCheckpoint and
// swap in that point's faults). It panics when no injector was wired: a
// schedule silently dropped would invalidate the experiment.
func (s *System) SetFaultSchedule(faults []fault.Fault) {
	if s.inj == nil {
		panic("arch: SetFaultSchedule on a system built without WireInjector or Faults")
	}
	s.inj.Reschedule(faults, len(s.Cores), s.seed)
}

// staticPlan computes VLS's one-off partition: the roofline plan over each
// workload's trip-count-weighted mean operational intensity, with any lanes
// the plan leaves free handed out round-robin (a static policy has no reason
// to idle silicon for the whole run).
func staticPlan(model roofline.Model, sched workload.CoSchedule, total int) []int {
	ois := make([]isa.OIPair, sched.Cores())
	for c, w := range sched.W {
		var issue, memOI, weight float64
		for _, k := range w.Phases {
			oi := k.OI()
			f := float64(k.Elems) * float64(k.Repeats)
			issue += oi.Issue * f
			memOI += oi.Mem * f
			weight += f
		}
		ois[c] = isa.OIPair{Issue: issue / weight, Mem: memOI / weight}
	}
	plan := lanemgr.Plan(model, ois, total)
	used := 0
	for _, vl := range plan {
		used += vl
	}
	for c := 0; used < total; c = (c + 1) % len(plan) {
		plan[c]++
		used++
	}
	return plan
}

// Done reports whether every core has halted AND the co-processor has
// drained its backlog (the scalar cores halt while transmitted instructions
// may still be queued).
func (s *System) Done() bool {
	now := s.Engine.Cycle()
	for c, core := range s.Cores {
		if !core.Halted() || !s.Cplx.Quiescent(c, now) {
			return false
		}
	}
	return true
}

// Run simulates until every core halts or maxCycles elapse. A run the engine
// aborts (cycle budget exhausted, watchdog stall) returns the partial Result
// alongside a *DiagError wrapping the engine error and a machine-state dump —
// callers that only check err keep their old behaviour, callers that care can
// errors.As the dump out.
func (s *System) Run(maxCycles uint64) (*Result, error) {
	_, err := s.Engine.RunUntil(s.Done, maxCycles)
	return s.FinishRun(err)
}

// FinishRun folds a run's terminal engine error (nil for a clean finish) into
// Run's result shape: the Result plus, for aborted runs, a *DiagError. Run
// ends with it; callers that drive the engine themselves, such as a traffic
// scenario's Run, call it to collect the same Result.
func (s *System) FinishRun(err error) (*Result, error) {
	if err != nil {
		werr := fmt.Errorf("arch: %s on %s: %w (pcs: %s)", s.Sched.Name, s.Kind, err, s.pcDump())
		return s.collect(), &DiagError{Dump: s.Diagnose(err), Err: werr}
	}
	return s.collect(), nil
}

func (s *System) pcDump() string {
	out := ""
	for c, core := range s.Cores {
		out += fmt.Sprintf("core%d pc=%d halted=%v vl=%d ", c, core.PC(), core.Halted(), s.Cplx.VL(c))
	}
	return out
}

// CheckResults verifies every phase's functional output against the host
// reference (see compiler.Phase.CheckResults).
func (s *System) CheckResults(relTol float64) error {
	for c, comp := range s.Compiled {
		for i := range comp.Phases {
			if err := comp.Phases[i].CheckResults(s.Hier.Mem, relTol); err != nil {
				return fmt.Errorf("core %d (%s): %w", c, s.Sched.W[c].Name, err)
			}
		}
	}
	return nil
}
