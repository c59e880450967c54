package occamy

import (
	"fmt"
	"sort"
	"strings"

	"occamy/internal/arch"
	"occamy/internal/metrics"
	"occamy/internal/obs"
)

// CoreReport carries one core's measurements from a run (the quantities of
// Figure 2(f) and Figure 14(c)).
type CoreReport struct {
	Workload string
	// Cycles is the core's completion time.
	Cycles uint64
	// IssueRate is SIMD compute instructions issued per cycle over the
	// whole run (the paper's "SIMD issue rate").
	IssueRate float64
	// PhaseIssueRates and PhaseCycles break the run down per compiler
	// phase.
	PhaseIssueRates []float64
	PhaseCycles     []uint64
	// RenameStallFrac is the fraction of cycles blocked in the renamer
	// waiting for free registers (Figure 13).
	RenameStallFrac float64
	// OverheadMonitorFrac and OverheadReconfigFrac are the Figure 15
	// elastic-sharing overheads, as fractions of execution time.
	OverheadMonitorFrac  float64
	OverheadReconfigFrac float64
	// Attribution is the top-down cycle accounting for this core: every
	// cycle charged to exactly one bucket, buckets summing to Cycles. Nil
	// unless the run was profiled (Config.Profile / PerfettoPath).
	Attribution *CycleAttribution
}

// Report is the result of one simulation run.
type Report struct {
	Arch     Arch
	Schedule string
	// Cycles is the makespan.
	Cycles uint64
	// Utilization is the paper's SIMD_util (§2) across the whole run.
	Utilization float64
	Cores       []CoreReport
	// Repartitions counts lane-manager plan computations; Reconfigures
	// counts successful <VL> changes (elastic only).
	Repartitions uint64
	Reconfigures uint64
	// StaticVLs echoes the static-spatial partition in granules, when the
	// architecture uses one.
	StaticVLs []int
	// LaneTimelines holds, per core, the average busy lanes per
	// 1000-cycle bucket — the curves of Figure 2(b-e) and Figure 14(b).
	LaneTimelines [][]float64
	// Elems counts vector elements processed across all cores (a work
	// proxy sampled at strip boundaries; the degradation experiment's
	// throughput numerator).
	Elems uint64
	// Recoveries is the fault-reaction log of an injected run (nil when no
	// faults were configured).
	Recoveries []Recovery
	// LinkDrops counts CPU->coproc transmissions refused by injected
	// dispatch-link faults.
	LinkDrops uint64
	// Stats is the full counter registry at end of run (nil unless
	// profiled). Names follow the unit.event convention, e.g.
	// "coproc.rename.stalls", "dram.bytes", "cpu0.pool_full_stall".
	Stats map[string]uint64
	// Histograms holds the rendered latency histograms collected during a
	// profiled run (e.g. dram.latency, coproc.drain.cycles).
	Histograms []string
	// Telemetry is the run's windowed sampler (nil unless Config enabled
	// telemetry): retained time-series windows, latency quantiles and the
	// structured event log, for programmatic consumers.
	Telemetry *TelemetrySampler
	// Host is the simulator's account of the work it elided. It is
	// host-side: it differs between a default run and a LegacyTick run of
	// the same simulation, whose every simulated number is identical.
	Host HostProfile
}

// HostProfile counts what the simulator elided while running a simulation:
// the cycles the engine skipped because the whole machine was quiescent, in
// how many jumps, and the co-processor row ticks and scalar-core ticks that
// parking replaced with a replay of their stall. All zero under LegacyTick.
type HostProfile struct {
	SkippedCycles   uint64
	Jumps           uint64
	ParkedRowTicks  uint64
	ParkedCoreTicks uint64
}

// String renders the profile as one line.
func (h HostProfile) String() string {
	return fmt.Sprintf("host: skipped %d cycles in %d jumps; parked %d co-processor row ticks and %d core ticks\n",
		h.SkippedCycles, h.Jumps, h.ParkedRowTicks, h.ParkedCoreTicks)
}

func newReport(sys *arch.System, res *arch.Result) *Report {
	r := &Report{
		Arch:         res.Arch,
		Schedule:     res.Sched,
		Cycles:       res.Cycles,
		Utilization:  res.Utilization,
		Repartitions: res.Repartitions,
		Reconfigures: res.Reconfigures,
		StaticVLs:    res.StaticVLs,
		Elems:        res.Elems,
		Recoveries:   res.Recoveries,
		LinkDrops:    res.LinkDrops,
	}
	for c, cr := range res.Cores {
		r.Cores = append(r.Cores, CoreReport{
			Workload:             cr.Workload,
			Cycles:               cr.Cycles,
			IssueRate:            cr.IssueRate,
			PhaseIssueRates:      cr.PhaseIssueRates,
			PhaseCycles:          cr.PhaseCycles,
			RenameStallFrac:      cr.RenameStallFrac,
			OverheadMonitorFrac:  cr.OverheadMonitorFrac,
			OverheadReconfigFrac: cr.OverheadReconfigFrac,
			Attribution:          cr.Attribution,
		})
		r.LaneTimelines = append(r.LaneTimelines, sys.Cplx.BusyTimeline(c).Points())
	}
	if sys.Probe != nil {
		r.Stats = sys.Stats.Snapshot()
		for _, h := range sys.Probe.Histograms() {
			r.Histograms = append(r.Histograms, h.String())
		}
	}
	r.Telemetry = sys.Tele
	r.Host = HostProfile{SkippedCycles: sys.Engine.SkippedCycles(), Jumps: sys.Engine.Skips()}
	r.Host.ParkedRowTicks, r.Host.ParkedCoreTicks = sys.ParkedTicks()
	return r
}

// TTRStats summarizes time-to-repartition over the run's completed
// recoveries: minimum, lower-median p50 and maximum in cycles, plus the count
// n of completed recoveries. Pending recoveries (the run ended first) are
// excluded; n == 0 means nothing completed.
func (r *Report) TTRStats() (min, p50, max uint64, n int) {
	ttrs := make([]uint64, 0, len(r.Recoveries))
	for _, rec := range r.Recoveries {
		if rec.Pending {
			continue
		}
		ttrs = append(ttrs, rec.TimeToRepartition())
	}
	if len(ttrs) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(ttrs, func(i, j int) bool { return ttrs[i] < ttrs[j] })
	n = len(ttrs)
	return ttrs[0], ttrs[(n-1)/2], ttrs[n-1], n
}

// TopDown renders the per-core cycle-attribution table: one row per bucket
// of the taxonomy, one column per core, cycles and percentage of that
// core's execution time. Empty when the run was not profiled.
func (r *Report) TopDown() string {
	profiled := false
	for _, cr := range r.Cores {
		if cr.Attribution != nil {
			profiled = true
		}
	}
	if !profiled {
		return ""
	}
	t := metrics.Table{Header: []string{"bucket"}}
	for c, cr := range r.Cores {
		t.Header = append(t.Header, fmt.Sprintf("core%d [%s]", c, cr.Workload))
	}
	for b := 0; b < obs.NumBuckets; b++ {
		row := []string{obs.Bucket(b).String()}
		for _, cr := range r.Cores {
			if cr.Attribution == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%d (%5.1f%%)",
				cr.Attribution.Get(obs.Bucket(b)), 100*cr.Attribution.Frac(obs.Bucket(b))))
		}
		t.Add(row...)
	}
	total := []string{"total"}
	for _, cr := range r.Cores {
		if cr.Attribution == nil {
			total = append(total, "-")
			continue
		}
		total = append(total, fmt.Sprintf("%d (100.0%%)", cr.Attribution.Total))
	}
	t.Add(total...)
	return t.String()
}

// Summary renders a one-run overview.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d cycles, SIMD utilization %.1f%%\n",
		r.Schedule, r.Arch, r.Cycles, 100*r.Utilization)
	for c, cr := range r.Cores {
		fmt.Fprintf(&b, "  core%d %-12s %8d cycles  issue %.2f/cy  rename-stall %.1f%%\n",
			c, cr.Workload, cr.Cycles, cr.IssueRate, 100*cr.RenameStallFrac)
	}
	if r.Arch == Elastic {
		fmt.Fprintf(&b, "  lane manager: %d repartitions, %d reconfigurations\n",
			r.Repartitions, r.Reconfigures)
	}
	if len(r.StaticVLs) > 0 {
		fmt.Fprintf(&b, "  static partition (granules): %v\n", r.StaticVLs)
	}
	for _, rec := range r.Recoveries {
		if rec.Pending {
			fmt.Fprintf(&b, "  fault %s: applied at %d, recovery pending at end of run\n", rec.Fault, rec.At)
		} else {
			fmt.Fprintf(&b, "  fault %s: applied at %d, recovered in %d cycles\n",
				rec.Fault, rec.At, rec.TimeToRepartition())
		}
	}
	if min, p50, max, n := r.TTRStats(); n > 0 {
		fmt.Fprintf(&b, "  recovery TTR (cycles): min %d  p50 %d  max %d  (%d completed)\n",
			min, p50, max, n)
	}
	if r.LinkDrops > 0 {
		fmt.Fprintf(&b, "  dropped transmissions: %d\n", r.LinkDrops)
	}
	return b.String()
}

// AsciiTimeline renders core c's busy-lane curve as a compact sparkline-ish
// strip (one character per bucket, height 0-8), handy for terminal plots of
// Figure 2.
func (r *Report) AsciiTimeline(c int, maxLanes float64) string {
	if c >= len(r.LaneTimelines) {
		return ""
	}
	return metrics.Sparkline(r.LaneTimelines[c], maxLanes)
}
