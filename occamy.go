// Package occamy is a pure-Go reproduction of "Occamy: Elastically Sharing a
// SIMD Co-processor across Multiple CPU Cores" (ASPLOS 2023): a cycle-level
// simulator of a multi-core processor attached to a shared SIMD co-processor
// whose 128-bit execution units can be repartitioned between cores at
// runtime, together with the EM-SIMD ISA extension, the roofline-guided
// hardware lane manager, and the elastic vectorizing compiler the paper
// describes.
//
// The public API runs co-scheduled workloads on the paper's four SIMD
// sharing architectures and reports the paper's metrics:
//
//	reg := occamy.Workloads()
//	sched := occamy.PairByName("spec/WL20", "spec/WL17")
//	report, err := occamy.Run(occamy.DefaultConfig(Elastic), sched)
//	fmt.Println(report.Summary())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package occamy

import (
	"context"
	"fmt"
	"os"
	"strings"

	"occamy/internal/arch"
	"occamy/internal/coproc"
	"occamy/internal/fault"
	"occamy/internal/isa"
	"occamy/internal/lanemgr"
	"occamy/internal/obs"
	"occamy/internal/roofline"
	"occamy/internal/telemetry"
	"occamy/internal/traffic"
	"occamy/internal/workload"
)

// Arch selects one of the four SIMD sharing architectures of Figure 1.
type Arch = arch.Kind

// The four architectures, in the paper's presentation order.
const (
	// Private gives each core its own fixed SIMD lanes (Figure 1(a)).
	Private = arch.Private
	// Temporal time-shares the full-width array between cores
	// (Figure 1(b); "FTS" in the evaluation).
	Temporal = arch.FTS
	// StaticSpatial partitions the lanes once, offline (Figure 1(c);
	// "VLS" in the evaluation).
	StaticSpatial = arch.VLS
	// Elastic is the paper's contribution: dynamic spatial sharing via
	// the EM-SIMD execution model (Figure 1(d)).
	Elastic = arch.Occamy
)

// Architectures lists all four in presentation order.
func Architectures() []Arch { return arch.Kinds }

// Config tunes a simulation run.
type Config struct {
	// Arch is the sharing architecture to simulate.
	Arch Arch
	// LanesPerCore sets the SIMD width budget: the co-processor gets
	// 4*LanesPerCore/4... granules per core (Table 4 uses 16 lanes per
	// core, i.e. 32 lanes total for the two-core configuration). Zero
	// means the Table 4 default.
	LanesPerCore int
	// Seed initializes workload data deterministically.
	Seed uint64
	// MonitorPeriod is the number of loop iterations between partition
	// monitor checks in elastic code (default 1, as in Figure 9).
	MonitorPeriod int
	// Scale multiplies workload trip counts (1.0 = the calibrated
	// defaults); use <1 for quick runs.
	Scale float64
	// MaxCycles bounds the simulation (a safety net against livelock;
	// zero means a generous default).
	MaxCycles uint64
	// Verify re-executes every phase on the host after simulation and
	// fails the run if the simulated results diverge.
	Verify bool
	// Machine overrides selected Table 4 hardware parameters (nil keeps
	// the defaults); see MachineTuning. Useful for design-space
	// exploration: slower DRAM, smaller vector cache, fewer physical
	// registers, different pipe latencies.
	Machine *MachineTuning
	// Profile enables the cycle-attribution observability layer: every
	// cycle of every core is charged to one top-down bucket (see
	// Report.Attribution and Report.TopDown), latency histograms are
	// collected, and the full counter registry is captured into
	// Report.Stats. Off by default; the instrumented models then keep nil
	// probes and pay only an inlined nil check.
	Profile bool
	// PerfettoPath, when non-empty, writes the run's Chrome trace-event
	// JSON file, openable in ui.perfetto.dev: phase slices, reconfiguration
	// drains, and the telemetry sampler's windows as counter tracks and
	// its events (lane, fault, recovery, watchdog, checkpoint) as
	// instants. Implies Profile and windowed sampling (see
	// TelemetryWindow). The file is created before the first simulated
	// cycle, so an unwritable path fails the run without simulating it,
	// and it is removed again if the simulation fails.
	PerfettoPath string
	// LegacyTick forces the engine to tick every component every cycle,
	// without skip-ahead fast-forwarding over quiescent windows and without
	// parking stalled co-processor rows and scalar cores. Results are
	// bit-identical either way; the switch exists for A/B validation and
	// engine benchmarking.
	LegacyTick bool
	// Faults is a fault-injection specification: semicolon-separated
	// entries "kind[:target...]@at[+for]" (see internal/fault; e.g.
	// "exebu:2@10000+5000; link:c0@2000+1000"), or "@file.json" to load a
	// JSON spec. Empty disables injection; fault-free runs are
	// bit-identical to builds without the machinery.
	Faults string
	// StallCycles arms the forward-progress watchdog: if no core retires
	// an instruction and the co-processor issues nothing for this many
	// cycles, the run aborts with a DiagnosticError instead of burning
	// MaxCycles. Zero disables the watchdog.
	StallCycles uint64
	// Telemetry, when non-nil, attaches the run's live sampler to the
	// given server before simulation starts, so GET /metrics, /events and
	// /stream serve fresh windows while the run is in flight. Implies
	// windowed sampling (see TelemetryWindow).
	Telemetry *TelemetryServer
	// TelemetryWindow is the sampling window in cycles, for the server,
	// Report.Telemetry and the PerfettoPath trace alike; 0 uses the
	// default (4096) when sampling is enabled. Setting it nonzero enables
	// sampling even without a server or trace (for Report.Telemetry).
	TelemetryWindow uint64
	// Topology shapes the co-processor side of the machine: the number of
	// co-processor clusters (each owning an even shard of the ExeBUs), the
	// fabric group width, and the hop latency/bandwidth of the routed
	// CPU→coproc fabric. Nil keeps the flat single-co-processor machine; a
	// 1-cluster topology with zero hop latency is bit-identical to nil.
	Topology *Topology
	// Traffic selects open-loop traffic-driven simulation instead of a fixed
	// co-schedule: a seeded arrival-process spec
	// "process:key=value,..." (process = poisson|bursty|diurnal; e.g.
	// "poisson:load=2,tenants=6,churn=8000:20000"). Used by RunTraffic;
	// Run ignores it. See internal/traffic for the full syntax.
	Traffic string
}

// Topology describes a clustered machine for Config.Topology: N co-processor
// instances behind a routed fabric. See the field docs in internal/coproc.
type Topology = coproc.Topology

// telemetryConfig returns the sampler configuration the run asks for, or
// nil when only a PerfettoPath trace (which samples at the default window)
// or nothing wants one.
func (c Config) telemetryConfig() *telemetry.Config {
	if c.Telemetry == nil && c.TelemetryWindow == 0 {
		return nil
	}
	return &telemetry.Config{Window: c.TelemetryWindow}
}

// Validate checks the configuration for shape errors — an unknown
// architecture, a lane budget that is not a multiple of the granule width, a
// malformed fault spec, out-of-range machine tuning or topology fields — so
// callers get a proper error instead of a build panic deep in the model.
func (c Config) Validate() error {
	switch c.Arch {
	case Private, Temporal, StaticSpatial, Elastic:
	default:
		return fmt.Errorf("occamy: unknown architecture %v", c.Arch)
	}
	if c.LanesPerCore < 0 || c.LanesPerCore%4 != 0 {
		return fmt.Errorf("occamy: LanesPerCore must be a non-negative multiple of 4, got %d", c.LanesPerCore)
	}
	if c.Scale < 0 {
		return fmt.Errorf("occamy: negative Scale %g", c.Scale)
	}
	if c.MonitorPeriod < 0 {
		return fmt.Errorf("occamy: negative MonitorPeriod %d", c.MonitorPeriod)
	}
	if c.Machine != nil {
		if err := c.Machine.Validate(); err != nil {
			return fmt.Errorf("occamy: %w", err)
		}
	}
	clusters := 1
	if t := c.Topology; t != nil {
		if err := t.CheckFields(); err != nil {
			return fmt.Errorf("occamy: %w", err)
		}
		clusters = t.Clusters
	}
	faults, err := parseFaults(c.Faults)
	if err != nil {
		return err
	}
	for _, f := range faults {
		if f.Cluster != fault.AnyCluster && f.Cluster >= clusters {
			return fmt.Errorf("occamy: fault %q targets cluster %d but the topology has %d cluster(s)", f.String(), f.Cluster, clusters)
		}
	}
	if c.Traffic != "" {
		if _, err := traffic.ParseSpec(c.Traffic); err != nil {
			return fmt.Errorf("occamy: %w", err)
		}
	}
	return nil
}

// parseFaults resolves Config.Faults: empty, an inline spec, or "@file.json".
func parseFaults(spec string) ([]fault.Fault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(strings.TrimPrefix(spec, "@"))
		if err != nil {
			return nil, fmt.Errorf("occamy: reading fault spec: %w", err)
		}
		return fault.ParseJSON(data)
	}
	return fault.ParseSpec(spec)
}

// CycleAttribution is one core's top-down cycle accounting: charged cycles
// per taxonomy bucket, with the conservation guarantee that the buckets sum
// to the core's total cycles.
type CycleAttribution = obs.CoreAttribution

// CycleBuckets returns the attribution taxonomy's bucket names, in report
// order (scalar-issue, vec-issue, rename-stall, dispatch-full,
// exebu-busy-wait, lsu-wait, mem-bandwidth, drain-reconfig,
// lane-monitor-overhead, idle).
func CycleBuckets() []string { return obs.BucketNames() }

// MachineTuning overrides hardware parameters relative to the Table 4
// defaults; zero-valued fields keep the default. It unmarshals directly
// from JSON (occamy-sim -machine file.json).
type MachineTuning = arch.MachineTuning

// DefaultConfig returns the Table 4 configuration for the given architecture.
// The forward-progress watchdog is armed by default (it only observes; a
// healthy run never trips it).
func DefaultConfig(a Arch) Config {
	return Config{
		Arch:         a,
		LanesPerCore: 16,
		Seed:         1,
		Scale:        1.0,
		MaxCycles:    200_000_000,
		Verify:       true,
		StallCycles:  2_000_000,
	}
}

// Schedule is a set of workloads co-scheduled one per core.
type Schedule struct {
	inner workload.CoSchedule
}

// Name returns the schedule's identifier.
func (s Schedule) Name() string { return s.inner.Name }

// Cores returns how many cores the schedule occupies.
func (s Schedule) Cores() int { return s.inner.Cores() }

// WorkloadNames returns the per-core workload names.
func (s Schedule) WorkloadNames() []string {
	out := make([]string, 0, s.inner.Cores())
	for _, w := range s.inner.W {
		out = append(out, w.Name)
	}
	return out
}

// registry is the process-wide Table 3 registry (immutable after build).
var registry = workload.NewRegistry()

// Workloads returns the names of the 34 evaluation workloads
// ("spec/WL1".."spec/WL22", "cv/WL1".."cv/WL12").
func Workloads() []string { return registry.WorkloadNames() }

// Kernels returns the names of every Table 3 loop kernel.
func Kernels() []string { return registry.KernelNames() }

// KernelOI returns the Eq. 5 operational-intensity pair of a kernel.
func KernelOI(name string) (issue, mem float64) {
	oi := registry.Kernel(name).OI()
	return oi.Issue, oi.Mem
}

// PairByName builds a two-core schedule: w0 runs on Core0, w1 on Core1
// (the paper places the memory-intensive workload on Core0).
func PairByName(w0, w1 string) Schedule {
	return Schedule{inner: workload.CoSchedule{
		Name: fmt.Sprintf("%s+%s", w0, w1),
		W:    []*workload.Workload{registry.Workload(w0), registry.Workload(w1)},
	}}
}

// WorkloadRef identifies a workload for scheduling: either a Table 3 entry
// (WorkloadByName) or a user-defined one (WorkloadFromJSON).
type WorkloadRef struct {
	inner *workload.Workload
}

// Name returns the workload's identifier.
func (w WorkloadRef) Name() string { return w.inner.Name }

// PhaseOIs returns the Eq. 5 operational-intensity pairs of the workload's
// phases (issue, mem).
func (w WorkloadRef) PhaseOIs() [][2]float64 {
	out := make([][2]float64, 0, len(w.inner.Phases))
	for _, k := range w.inner.Phases {
		oi := k.OI()
		out = append(out, [2]float64{oi.Issue, oi.Mem})
	}
	return out
}

// WorkloadByName looks up a Table 3 workload ("spec/WL8", "cv/WL3").
func WorkloadByName(name string) WorkloadRef {
	return WorkloadRef{inner: registry.Workload(name)}
}

// WorkloadFromJSON parses a custom workload definition — loop kernels
// described by load slots, statements in the compact expression syntax
// ("add(mul(s0, c2.5), s1)"), trip counts and repeats. See
// internal/workload's JSON documentation and examples/customkernel for the
// schema.
func WorkloadFromJSON(data []byte) (WorkloadRef, error) {
	w, err := workload.ParseWorkloadJSON(data)
	if err != nil {
		return WorkloadRef{}, err
	}
	return WorkloadRef{inner: w}, nil
}

// WorkloadToJSON renders a workload back to its JSON definition.
func WorkloadToJSON(w WorkloadRef) ([]byte, error) {
	return workload.MarshalWorkloadJSON(w.inner)
}

// NewSchedule co-schedules the given workloads one per core, in order.
func NewSchedule(name string, ws ...WorkloadRef) Schedule {
	s := workload.CoSchedule{Name: name}
	for _, w := range ws {
		s.W = append(s.W, w.inner)
	}
	return Schedule{inner: s}
}

// ScheduleByNames builds an n-core schedule (used for the §7.6 four-core
// groups).
func ScheduleByNames(names ...string) Schedule {
	s := workload.CoSchedule{Name: fmt.Sprint(names)}
	for _, n := range names {
		s.W = append(s.W, registry.Workload(n))
	}
	return Schedule{inner: s}
}

// Figure10Pairs returns the 25 co-running pairs of the paper's main
// evaluation, in plot order.
func Figure10Pairs() []Schedule {
	var out []Schedule
	for _, p := range workload.Figure10Pairs(registry) {
		out = append(out, Schedule{inner: p})
	}
	return out
}

// MotivatingPair returns the §2 example of Figure 2.
func MotivatingPair() Schedule {
	return Schedule{inner: workload.MotivatingPair(registry)}
}

// CaseStudyPair returns the §7.4 case studies (1-4).
func CaseStudyPair(n int) Schedule {
	return Schedule{inner: workload.CaseStudyPair(registry, n)}
}

// FourCoreGroups returns the §7.6 scalability groups.
func FourCoreGroups() []Schedule {
	var out []Schedule
	for _, g := range workload.FourCoreGroups(registry) {
		out = append(out, Schedule{inner: g})
	}
	return out
}

// Recovery records how the simulated system reacted to one injected fault:
// the cycle it fired and the cycle the architecture finished adapting
// (Done - At is the time-to-repartition for the lane-replanning reactions).
type Recovery = arch.Recovery

// Diagnostic is the structured machine-state dump the watchdog and
// cycle-budget paths attach to a failed run: per-core scalar and
// co-processor pipeline snapshots, the lane table, top-down cycle
// attribution (when profiled) and the fault log. Its String method renders
// it for terminals; it also marshals to JSON.
type Diagnostic = arch.DiagnosticDump

// DiagnosticError is the error Run returns when the engine aborts (forward-
// progress stall or MaxCycles exhaustion): errors.As recovers it, and its
// Dump field holds the Diagnostic. errors.Is/As see through it to the
// underlying sim.StallError / sim.BudgetError.
type DiagnosticError = arch.DiagError

// TelemetryServer serves attached runs' live telemetry over HTTP: GET
// /metrics (OpenMetrics text), /events (one JSON object per line), /stream
// (server-sent events, one update per closed window) and /healthz. Build one
// with NewTelemetryServer, Start it on an address, and pass it to every run
// that should be visible (Config.Telemetry).
type TelemetryServer = telemetry.Server

// NewTelemetryServer returns a telemetry server with no attached runs and no
// listener; call Start("127.0.0.1:9464") to serve.
func NewTelemetryServer() *TelemetryServer { return telemetry.NewServer() }

// TelemetrySampler is a run's windowed telemetry sampler (Report.Telemetry):
// programmatic access to the retained windows, quantiles and event log.
type TelemetrySampler = telemetry.Sampler

// Run simulates sched on cfg.Arch until every core completes.
func Run(cfg Config, sched Schedule) (*Report, error) {
	return RunContext(context.Background(), cfg, sched)
}

// RunContext is Run with cooperative cancellation: when ctx is canceled (or
// its deadline passes) the engine stops at the next cycle-aligned poll point
// and the error chain carries ctx's cause (context.Canceled or
// context.DeadlineExceeded) together with the usual DiagnosticError machine
// dump, so a killed run can still be diagnosed. Cancellation is purely
// cooperative and side-effect-free: a context that never fires leaves results
// bit-identical to Run.
func RunContext(ctx context.Context, cfg Config, sched Schedule) (*Report, error) {
	o := cfg.obsOptions()
	sys, err := buildSystem(cfg, sched, o)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.Attach(sanitize(sched.inner.Name)+"-"+cfg.Arch.String(), sys.Tele)
	}
	if ctx != nil && ctx.Done() != nil {
		sys.SetInterrupt(ctx.Done())
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 200_000_000
	}
	trace, err := createPerfetto(cfg.PerfettoPath)
	if err != nil {
		return nil, err
	}
	res, err := sys.Run(maxCycles)
	sys.Tele.Flush(sys.Engine.Cycle())
	if err == nil && cfg.Verify {
		if verr := sys.CheckResults(2e-3); verr != nil {
			err = fmt.Errorf("occamy: functional verification failed: %w", verr)
		}
	}
	if err := finishPerfetto(trace, o.Sink, err); err != nil {
		return nil, err
	}
	return newReport(sys, res), nil
}

// obsOptions selects the run's observability: attribution for Profile, and
// a Perfetto sink (which implies attribution) for PerfettoPath.
func (c Config) obsOptions() obs.Options {
	o := obs.Options{Attribution: c.Profile}
	if c.PerfettoPath != "" {
		o.Attribution, o.Sink = true, obs.NewPerfetto(0)
	}
	return o
}

// createPerfetto creates the run's trace file before the first simulated
// cycle, so an unwritable path costs no simulation; an empty path creates
// nothing.
func createPerfetto(path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("occamy: writing perfetto trace: %w", err)
	}
	return f, nil
}

// finishPerfetto writes the run's trace into f and closes it. After a failed
// run (runErr non-nil) it removes f instead and returns runErr.
func finishPerfetto(f *os.File, sink *obs.Perfetto, runErr error) error {
	if f == nil {
		return runErr
	}
	if runErr != nil {
		f.Close()
		os.Remove(f.Name())
		return runErr
	}
	_, err := sink.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("occamy: writing perfetto trace: %w", err)
	}
	return nil
}

// sanitize turns a schedule name into a safe file stem.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func buildSystem(cfg Config, sched Schedule, o obs.Options) (*arch.System, error) {
	faults, err := parseFaults(cfg.Faults)
	if err != nil {
		return nil, err
	}
	s := sched.inner
	if cfg.Scale > 0 && cfg.Scale != 1.0 {
		s = s.Scaled(cfg.Scale)
	}
	lanesPerCore := cfg.LanesPerCore
	if lanesPerCore <= 0 {
		lanesPerCore = 16
	}
	return arch.Build(cfg.Arch, s, arch.Options{
		ExeBUs:        lanesPerCore / 4 * s.Cores(),
		MonitorPeriod: cfg.MonitorPeriod,
		Seed:          cfg.Seed,
		Machine:       cfg.Machine,
		Obs:           o,
		LegacyTick:    cfg.LegacyTick,
		Faults:        faults,
		StallCycles:   cfg.StallCycles,
		Telemetry:     cfg.telemetryConfig(),
		Topology:      cfg.Topology,
	})
}

// Roofline exposes the §5.1 vector-length-aware model for analysis: the
// attainable performance AP_vl (Eq. 4) in GFLOP/s for a phase with the given
// operational intensities at vl granules (4*vl lanes).
func Roofline(vl int, oiIssue, oiMem float64) float64 {
	m := roofline.Default()
	return m.Attainable(vl, isa.OIPair{Issue: oiIssue, Mem: oiMem})
}

// LanePlan runs the §5.2 greedy partitioner over a set of co-running phase
// intensities (pairs of oi_issue, oi_mem; a zero pair marks an inactive
// core) and a total granule budget, returning granules per workload.
func LanePlan(oiPairs [][2]float64, totalGranules int) []int {
	in := make([]isa.OIPair, len(oiPairs))
	for i, p := range oiPairs {
		in[i] = isa.OIPair{Issue: p[0], Mem: p[1]}
	}
	return lanemgr.Plan(roofline.Default(), in, totalGranules)
}
