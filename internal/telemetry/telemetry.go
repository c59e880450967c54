// Package telemetry is the simulator's live-observation layer: a windowed
// time-series sampler that snapshots deltas of the existing observability
// state (obs attribution buckets, lane-manager resource table, per-core CPU
// progress, retire-latency histograms) into fixed-size preallocated ring
// buffers every N simulated cycles, plus a structured event log for discrete
// occurrences (fault injection, recovery, lane repartitions, watchdog dumps,
// checkpoint forks).
//
// Three consumers sit on top: the HTTP server in server.go (OpenMetrics
// /metrics, JSONL /events, an SSE window stream), the run's Perfetto trace
// (when the probe carries a sink, every closed window is appended to it as
// counter tracks and every event as an instant), and programmatic access for
// campaign runners.
//
// Two hard contracts shape the design (DESIGN.md §Telemetry):
//
//   - Zero allocation in steady state. Every ring slot, per-core record and
//     delta scratch buffer is allocated in NewSampler; a window boundary only
//     writes into them. The arch-level AllocsPerRun tests run with telemetry
//     enabled and still demand 0 allocs/op.
//
//   - Determinism. The sampler participates in checkpoint/restore
//     (Snapshot/Restore) and implements the engine's Sleeper capability, so
//     skip-ahead runs, legacy runs and checkpoint-forked runs all produce
//     bit-identical windows and events (Digest; differential-tested in
//     internal/arch). The only non-deterministic quantity — host wall time
//     per window, for the sim-cycles/s gauge — is kept outside the
//     checkpointed SamplerState and reported as Window.HostNanos.
package telemetry

import (
	"sync"
	"time"

	"occamy/internal/digest"
	"occamy/internal/obs"
	"occamy/internal/sim"
)

// Config sizes the sampler. The zero value selects the defaults.
type Config struct {
	// Window is the sampling period in simulated cycles (default 4096).
	Window uint64
	// Windows is the ring capacity in windows (default 1024); older windows
	// are overwritten.
	Windows int
	// Events is the deterministic event ring capacity (default 4096); older
	// events are overwritten.
	Events int
}

// Defaults for Config's zero fields.
const (
	DefaultWindow  = 4096
	DefaultWindows = 1024
	DefaultEvents  = 4096
)

func (c Config) normalized() Config {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.Windows <= 0 {
		c.Windows = DefaultWindows
	}
	if c.Events <= 0 {
		c.Events = DefaultEvents
	}
	return c
}

// CoreSource is the per-core CPU state the sampler reads at each boundary
// (*cpu.Core satisfies it).
type CoreSource interface {
	Halted() bool
	Parked() bool
	Progress() uint64 // scalar instructions retired
	Elems() uint64    // vector elements completed
}

// CoprocSource is the co-processor state the sampler reads at each boundary
// (*coproc.Complex satisfies it).
type CoprocSource interface {
	ComputeIssued(c int) uint64
	MemIssued(c int) uint64
	RenameStalls(c int) uint64
	BusyLaneCycles(c int) float64
	VL(c int) int
}

// TableSource is the lane-manager resource-table view (*lanemgr.ResourceTbl
// satisfies it).
type TableSource interface {
	AL() int
	Usable() int
	Failed() int
	Total() int
	Decision(c int) int
}

// Sources wires the sampler to the system it observes. Probe and Stats may
// be nil (their metrics then read zero); Cores must be non-empty. When the
// probe carries a Perfetto sink, the sampler writes its windows and events
// into that trace.
type Sources struct {
	Cores []CoreSource
	Cp    CoprocSource
	Tbl   TableSource
	Probe *obs.Probe
	Stats *sim.Stats
	// Lanes is the full SIMD array width in lanes, the denominator of the
	// occupancy fraction.
	Lanes int
	// Tables lists one TableSource per co-processor cluster, in fabric
	// order, for the per-cluster series; a flat machine wires its single
	// table here too. Empty disables the per-cluster series (and removes
	// them from Digest), so pre-topology samplers hash unchanged.
	Tables []TableSource
	// Traffic, when non-nil, adds the open-loop traffic series (queue
	// depth, task flow, latency quantiles) to every window; usually wired
	// post-build via WireTraffic. Nil disables the series and keeps
	// non-traffic digests unchanged.
	Traffic TrafficSource
}

// CoreWindow is one core's slice of a sampling window. Counter-like fields
// are deltas over the window; VL/Decision/Headroom/Halted are gauges read at
// the window's closing boundary.
type CoreWindow struct {
	// Buckets holds the obs cycle-attribution deltas for the window.
	Buckets [obs.NumBuckets]uint64
	Insts   uint64
	Elems   uint64
	Compute uint64 // SIMD compute µops issued
	Mem     uint64 // SIMD memory µops issued
	Stalls  uint64 // rename-stall cycles

	// BusyLanes is the busy lane·cycle sum over the window; divided by the
	// window length it is the core's mean lane occupancy.
	BusyLanes float64

	VL       int
	Decision int
	// Headroom is the fairness-floor headroom in granules: how much of the
	// core's partition a repartition could revoke while honoring the
	// one-granule floor every active core is guaranteed (the full partition
	// once the core halts).
	Headroom int
	Halted   bool
	Parked   bool

	// RetireCount and the quantiles summarize the issue→retire latency
	// histogram delta for the window (0 when nothing retired).
	RetireCount uint64
	RetireP50   float64
	RetireP99   float64
}

// ClusterWindow is one co-processor cluster's resource-table gauges at a
// window boundary (the per-cluster telemetry series of a clustered topology).
type ClusterWindow struct {
	ALGranules int
	UsableBUs  int
	FailedBUs  int
	TotalBUs   int
}

// Window is one closed sampling window.
type Window struct {
	Index    uint64 // sequence number, 0-based
	EndCycle uint64 // the boundary cycle; the window covers (EndCycle-Cycles, EndCycle]
	Cycles   uint64 // window length (== Config.Window except a final Flush)

	Repartitions uint64 // lane-plan computations in the window
	Reconfigures uint64 // successful <VL> reconfigurations in the window

	// Resource-table gauges at the boundary.
	ALGranules int
	UsableBUs  int
	FailedBUs  int
	TotalBUs   int

	// Occupancy is the whole-array busy fraction over the window (0..1).
	Occupancy float64

	// HostNanos is host wall time elapsed since the previous boundary, the
	// one non-deterministic field. The sampler keeps it outside its
	// checkpointed ring and fills it in when CopyWindow copies a window out.
	HostNanos int64

	Cores []CoreWindow
	// Clusters holds the per-cluster table gauges, one entry per
	// Sources.Tables element; empty when no Tables were wired.
	Clusters []ClusterWindow

	// Traffic is the open-loop traffic slice, valid iff HasTraffic (a
	// TrafficSource was wired when the window closed).
	Traffic    TrafficWindow
	HasTraffic bool
}

// HostCyclesPerSec converts HostNanos into a simulation throughput gauge.
func (w *Window) HostCyclesPerSec() float64 { return cyclesPerSec(w.Cycles, w.HostNanos) }

func cyclesPerSec(cycles uint64, nanos int64) float64 {
	if nanos <= 0 {
		return 0
	}
	return float64(cycles) / (float64(nanos) / 1e9)
}

// Event kinds. Constants, not formatted strings: the emitting sites must not
// allocate.
const (
	EvFaultApply      = "fault.apply"
	EvFaultRevert     = "fault.revert"
	EvRecoveryDone    = "recovery.done"
	EvWatchdog        = "watchdog.dump"
	EvLaneRepartition = "lane.repartition"
	EvLaneReconfigure = "lane.reconfigure"
	EvLaneReject      = "lane.reject"
	EvCheckpoint      = "checkpoint.fork"
	EvRestore         = "checkpoint.restore"
)

// Event is one discrete occurrence. Deterministic events (everything the
// simulation itself produces) live in the checkpointed ring and feed Digest;
// meta events (checkpoint/restore markers, which differ between a base run
// and its forks by construction) live in a separate host-side log.
type Event struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	// Core is the affected core, -1 for system-wide events.
	Core int `json:"core"`
	// Arg is the kind-specific payload: TTR cycles for recovery.done, the
	// configured VL for lane events, the failed-unit count for faults.
	Arg uint64 `json:"arg"`
	// Detail is optional human-readable context; emitting sites adjacent to
	// the hot path pass "" to stay allocation-free.
	Detail string `json:"detail,omitempty"`
	// Meta marks host-side events excluded from determinism checks.
	Meta bool `json:"meta,omitempty"`
}

// prevCore is the cumulative snapshot diffed into per-core window deltas.
type prevCore struct {
	buckets [obs.NumBuckets]uint64
	insts   uint64
	elems   uint64
	compute uint64
	mem     uint64
	stalls  uint64
	busy    float64
	bins    [obs.NumBins]uint64
}

type prevState struct {
	cycle  uint64
	repart uint64
	reconf uint64
	cores  []prevCore

	// Cumulative traffic baselines (zero until WireTraffic).
	trafArrived   uint64
	trafAdmitted  uint64
	trafCompleted uint64
	trafCanceled  uint64
	trafSojourn   [obs.NumBins]uint64
	trafAdmit     [obs.NumBins]uint64
}

// Sampler is the windowed time-series sampler. It implements sim.Component
// (register it AFTER the obs probe, so a boundary reads the cycle's settled
// attribution) and sim.Sleeper (boundaries force a real tick; everything
// between them is quiescent, so skip-ahead stays fully enabled).
//
// All methods that read or mutate the rings lock s.mu, making concurrent
// HTTP reads safe while the single-goroutine simulation advances. A nil
// *Sampler is the disabled state: Emit/EmitMeta/Snapshot/Restore/Flush are
// all safe on it.
type Sampler struct {
	cfg Config
	src Sources

	// Cached allocation-free handles, resolved once at construction.
	hists      []*obs.Histogram
	repartCell *uint64
	reconfCell *uint64

	mu sync.Mutex

	SamplerState

	host []int64 // host wall time of each ring slot's window (Window.HostNanos)
	meta []Event // host-side meta log (append-only, small)

	// Delta scratch (guarded by mu).
	scratch [obs.NumBins]uint64
	delta   [obs.NumBins]uint64

	lastWall time.Time
	onWindow func() // server notification, called outside mu

	// sink is the probe's Perfetto trace (nil when the run is not traced).
	// Windows and events are appended to it as they happen, so the trace
	// holds the whole run, not just what the rings retain.
	sink *obs.Perfetto
}

// SamplerState is the sampler's checkpointed state: the full deterministic
// history (windows, counters, event ring, delta baselines). Host wall time
// is not in it — a restored run re-measures its own throughput.
type SamplerState struct {
	wins []Window // ring; slot nwin%len(wins) is the next window's
	nwin uint64   // windows produced (monotonic)

	prev prevState

	events []Event // deterministic ring
	nev    uint64  // deterministic events produced (monotonic)
}

// eventsTid is the telemetry process's thread for system-wide instants.
const eventsTid = 0

// NewSampler builds a sampler over src. Everything the steady-state path
// touches is allocated here.
func NewSampler(cfg Config, src Sources) *Sampler {
	cfg = cfg.normalized()
	n := len(src.Cores)
	s := &Sampler{
		cfg:          cfg,
		src:          src,
		hists:        make([]*obs.Histogram, n),
		SamplerState: SamplerState{wins: make([]Window, cfg.Windows), events: make([]Event, cfg.Events)},
		host:         make([]int64, cfg.Windows),
		sink:         src.Probe.Sink(), // nil-safe: nil probe → nil sink
	}
	// The per-core processes are the cores' own (pid = core id, named by
	// the system builder); system-wide tracks go to one more process.
	s.sink.EmitProcessName(n, "telemetry")
	s.sink.EmitThreadName(n, eventsTid, "events")
	for i := range s.wins {
		s.wins[i].Cores = make([]CoreWindow, n)
		if len(src.Tables) > 0 {
			s.wins[i].Clusters = make([]ClusterWindow, len(src.Tables))
		}
	}
	s.prev.cores = make([]prevCore, n)
	for c := range s.hists {
		s.hists[c] = src.Probe.Hist(obs.RetireHistName(c)) // nil-safe: nil probe → nil hist
	}
	if src.Stats != nil {
		s.repartCell = src.Stats.Counter("coproc.repartitions")
		s.reconfCell = src.Stats.Counter("coproc.reconfigures")
	}
	return s
}

// Window returns the configured sampling period in cycles.
func (s *Sampler) Window() uint64 { return s.cfg.Window }

// OnWindow registers fn to run after every closed window (outside the
// sampler lock). The HTTP server uses it to wake SSE streams.
func (s *Sampler) OnWindow(fn func()) {
	s.mu.Lock()
	s.onWindow = fn
	s.mu.Unlock()
}

// Name implements sim.Component.
func (s *Sampler) Name() string { return "telemetry" }

// Tick implements sim.Component: close a window at every boundary. Cycle 0
// is the reset cycle; the first window closes at cycle Window.
func (s *Sampler) Tick(now uint64) {
	if now == 0 || now%s.cfg.Window != 0 {
		return
	}
	s.sample(now)
}

// NextWake implements sim.Sleeper. A boundary cycle must run as a real
// full-system tick (so the sampler sees every component's settled state);
// any other cycle is quiescent until the next boundary. This keeps
// skip-ahead fully enabled with telemetry on — the engine simply lands on
// every boundary.
func (s *Sampler) NextWake(now uint64) (uint64, bool) {
	if now > 0 && now%s.cfg.Window == 0 {
		return 0, false
	}
	return (now/s.cfg.Window + 1) * s.cfg.Window, true
}

// SkipTicks implements sim.Sleeper. Elided cycles never include a boundary
// (NextWake bounds every skip at the next one), and the sampler does nothing
// on non-boundary cycles, so there is nothing to replay.
func (s *Sampler) SkipTicks(from, n uint64) { _, _ = from, n }

// Flush closes a final partial window covering (lastBoundary, now] — for
// end-of-run reports and traces. A no-op when now is not past the last
// boundary.
func (s *Sampler) Flush(now uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	last := s.prev.cycle
	s.mu.Unlock()
	if now <= last {
		return
	}
	s.sample(now)
}

// sample closes the window ending at cycle now. Zero allocations: every
// write lands in preallocated ring slots and scratch.
func (s *Sampler) sample(now uint64) {
	wall := time.Now()
	var host int64
	if !s.lastWall.IsZero() {
		host = wall.Sub(s.lastWall).Nanoseconds()
	}
	s.lastWall = wall

	s.mu.Lock()
	slot := int(s.nwin % uint64(len(s.wins)))
	w := &s.wins[slot]
	w.Index = s.nwin
	w.EndCycle = now
	w.Cycles = now - s.prev.cycle
	s.host[slot] = host

	var repart, reconf uint64
	if s.repartCell != nil {
		repart, reconf = *s.repartCell, *s.reconfCell
	}
	w.Repartitions = repart - s.prev.repart
	w.Reconfigures = reconf - s.prev.reconf

	if tbl := s.src.Tbl; tbl != nil {
		w.ALGranules = tbl.AL()
		w.UsableBUs = tbl.Usable()
		w.FailedBUs = tbl.Failed()
		w.TotalBUs = tbl.Total()
	}
	for k, tbl := range s.src.Tables {
		cw := &w.Clusters[k]
		cw.ALGranules = tbl.AL()
		cw.UsableBUs = tbl.Usable()
		cw.FailedBUs = tbl.Failed()
		cw.TotalBUs = tbl.Total()
	}

	totalBusy := 0.0
	for c := range w.Cores {
		cw := &w.Cores[c]
		pc := &s.prev.cores[c]
		core := s.src.Cores[c]

		att := s.src.Probe.CoreAttribution(c) // value copy, alloc-free
		for b := range cw.Buckets {
			cw.Buckets[b] = att.Buckets[b] - pc.buckets[b]
			pc.buckets[b] = att.Buckets[b]
		}

		insts, elems := core.Progress(), core.Elems()
		cw.Insts, pc.insts = insts-pc.insts, insts
		cw.Elems, pc.elems = elems-pc.elems, elems

		if cp := s.src.Cp; cp != nil {
			comp, mem, stalls := cp.ComputeIssued(c), cp.MemIssued(c), cp.RenameStalls(c)
			cw.Compute, pc.compute = comp-pc.compute, comp
			cw.Mem, pc.mem = mem-pc.mem, mem
			cw.Stalls, pc.stalls = stalls-pc.stalls, stalls
			busy := cp.BusyLaneCycles(c)
			cw.BusyLanes, pc.busy = busy-pc.busy, busy
			cw.VL = cp.VL(c)
		}
		totalBusy += cw.BusyLanes

		cw.Halted = core.Halted()
		cw.Parked = core.Parked()
		if s.src.Tbl != nil {
			cw.Decision = s.src.Tbl.Decision(c)
		}
		// Fairness-floor headroom: every active core is guaranteed one
		// granule, so its partition can shrink by VL-1; a halted core's
		// whole partition is reclaimable.
		if cw.Halted {
			cw.Headroom = cw.VL
		} else if cw.VL > 0 {
			cw.Headroom = cw.VL - 1
		} else {
			cw.Headroom = 0
		}

		// Windowed issue→retire latency: diff the cumulative power-of-two
		// bins and estimate quantiles on the delta.
		s.hists[c].CopyBins(&s.scratch)
		var cnt uint64
		for i := range s.scratch {
			d := s.scratch[i] - pc.bins[i]
			s.delta[i] = d
			cnt += d
		}
		pc.bins = s.scratch
		cw.RetireCount = cnt
		if cnt > 0 {
			cw.RetireP50 = obs.QuantileBins(&s.delta, 0.50)
			cw.RetireP99 = obs.QuantileBins(&s.delta, 0.99)
		} else {
			cw.RetireP50, cw.RetireP99 = 0, 0
		}
	}

	if w.Cycles > 0 && s.src.Lanes > 0 {
		w.Occupancy = totalBusy / (float64(w.Cycles) * float64(s.src.Lanes))
	} else {
		w.Occupancy = 0
	}

	s.sampleTraffic(w)
	if s.sink != nil {
		s.traceWindow(w, host)
	}

	s.prev.cycle = now
	s.prev.repart, s.prev.reconf = repart, reconf
	s.nwin++
	fn := s.onWindow
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Emit records one deterministic event into the ring (oldest overwritten).
// Safe on a nil sampler; allocation-free when detail is "" or a constant.
func (s *Sampler) Emit(cycle uint64, kind string, core int, arg uint64, detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	e := &s.events[int(s.nev%uint64(len(s.events)))]
	e.Cycle, e.Kind, e.Core, e.Arg, e.Detail, e.Meta = cycle, kind, core, arg, detail, false
	s.nev++
	if s.sink != nil {
		s.traceEvent(e)
	}
	s.mu.Unlock()
}

// EmitMeta records a host-side meta event (checkpoint fork / restore).
// These never enter Digest or snapshots: a forked run's meta history
// legitimately differs from its base run's.
func (s *Sampler) EmitMeta(cycle uint64, kind string, detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.meta = append(s.meta, Event{Cycle: cycle, Kind: kind, Core: -1, Detail: detail, Meta: true})
	if s.sink != nil {
		s.traceEvent(&s.meta[len(s.meta)-1])
	}
	s.mu.Unlock()
}

// traceWindow appends closed window w, which took host nanoseconds of wall
// time, to the trace as counter samples at its boundary cycle: the
// system-wide tracks on the telemetry process, the per-core tracks on each
// core's process. Caller holds s.mu.
func (s *Sampler) traceWindow(w *Window, host int64) {
	sys, ts := len(w.Cores), w.EndCycle
	s.sink.EmitCounter(sys, "telemetry.al_granules", "granules", ts, float64(w.ALGranules))
	s.sink.EmitCounter(sys, "telemetry.exebus_usable", "units", ts, float64(w.UsableBUs))
	s.sink.EmitCounter(sys, "telemetry.exebus_failed", "units", ts, float64(w.FailedBUs))
	s.sink.EmitCounter(sys, "telemetry.repartitions", "per-window", ts, float64(w.Repartitions))
	s.sink.EmitCounter(sys, "telemetry.occupancy", "fraction", ts, w.Occupancy)
	s.sink.EmitCounter(sys, "telemetry.host_mcycles_per_s", "Mc/s", ts, cyclesPerSec(w.Cycles, host)/1e6)
	for c := range w.Cores {
		cw := &w.Cores[c]
		mean := 0.0
		if w.Cycles > 0 {
			mean = cw.BusyLanes / float64(w.Cycles)
		}
		s.sink.EmitCounter(c, "telemetry.busy_lanes", "lanes", ts, mean)
		s.sink.EmitCounter(c, "telemetry.vl", "granules", ts, float64(cw.VL))
		s.sink.EmitCounter(c, "telemetry.fairness_headroom", "granules", ts, float64(cw.Headroom))
		s.sink.EmitCounter(c, "telemetry.retire_p50", "cycles", ts, cw.RetireP50)
		s.sink.EmitCounter(c, "telemetry.retire_p99", "cycles", ts, cw.RetireP99)
	}
}

// traceEvent appends e to the trace as an instant: on its core's em-simd
// thread, or on the telemetry process for system-wide events. Caller holds
// s.mu.
func (s *Sampler) traceEvent(e *Event) {
	pid, tid := len(s.src.Cores), eventsTid
	if e.Core >= 0 && e.Core < pid {
		pid, tid = e.Core, obs.TidEMSIMD
	}
	args := map[string]any{"arg": float64(e.Arg)}
	if e.Detail != "" {
		args["detail"] = e.Detail
	}
	s.sink.EmitInstant(pid, tid, e.Kind, e.Cycle, args)
}

// Produced returns the number of windows closed so far.
func (s *Sampler) Produced() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nwin
}

// Retained returns how many windows the ring still holds.
func (s *Sampler) Retained() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retainedLocked()
}

func (s *Sampler) retainedLocked() int {
	if s.nwin < uint64(len(s.wins)) {
		return int(s.nwin)
	}
	return len(s.wins)
}

// CopyWindow deep-copies retained window i (0 = oldest retained) into dst,
// reusing dst.Cores when the shapes match. It reports whether i was in
// range.
func (s *Sampler) CopyWindow(i int, dst *Window) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.retainedLocked()
	if i < 0 || i >= n {
		return false
	}
	slot := int((s.nwin - uint64(n) + uint64(i)) % uint64(len(s.wins)))
	digest.Copy(dst, &s.wins[slot])
	dst.HostNanos = s.host[slot]
	return true
}

// Events appends the retained deterministic events (oldest first) followed
// by the meta log to dst and returns it.
func (s *Sampler) Events(dst []Event) []Event {
	if s == nil {
		return dst
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nev
	if n > uint64(len(s.events)) {
		n = uint64(len(s.events))
	}
	first := s.nev - n
	for i := uint64(0); i < n; i++ {
		dst = append(dst, s.events[int((first+i)%uint64(len(s.events)))])
	}
	dst = append(dst, s.meta...)
	return dst
}

// EventsProduced returns the number of deterministic events recorded
// (including any the ring has since overwritten).
func (s *Sampler) EventsProduced() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nev
}

// State returns the sampler's deterministic state, sharing storage with the
// sampler (the zero state on a nil sampler). Only the simulation goroutine
// mutates it, so that goroutine may hold the result until it runs on.
func (s *Sampler) State() SamplerState {
	if s == nil {
		return SamplerState{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.SamplerState
}

// Snapshot deep-copies the sampler's deterministic state (the zero state on
// a nil sampler).
func (s *Sampler) Snapshot() SamplerState {
	st := s.State()
	return digest.Clone(&st)
}

// Restore rewinds the sampler to a Snapshot taken on an identically
// configured instance, writing the rings in place. The restored windows'
// host times are unknown (zero), and the next window re-baselines host
// throughput. Safe (no-op) on a nil sampler.
func (s *Sampler) Restore(st SamplerState) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	digest.Copy(&s.SamplerState, &st)
	clear(s.host)
	s.lastWall = time.Time{}
}

// Digest hashes the sampler's deterministic state — every ring slot, the
// event ring, the counters and the delta baselines — into one value the
// differential tests compare across skip/legacy and base/forked runs.
func (s *Sampler) Digest() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return digest.Sum(&s.SamplerState)
}
