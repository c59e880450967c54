package experiments

import (
	"errors"
	"fmt"
	"strings"

	"occamy/internal/arch"
	"occamy/internal/fault"
	"occamy/internal/metrics"
	"occamy/internal/sim"
	"occamy/internal/workload"
)

// The degradation study: inject f permanently failed ExeBUs early in the run
// and measure how much throughput each Figure 1 architecture retains,
// normalized to its own fault-free run. The group is heterogeneous on
// purpose — a long compute-bound chain on core 0 (the fault controller's
// round-robin cursor victimizes core 0 first), co-long memory-bound triads
// on cores 1 and 3, and a shorter compute chain on core 2. Static splits
// must eat each loss wherever the round-robin lands it: on a memory core it
// cuts into the roofline knee (and soon kills the core outright), on the
// critical-path compute core it stretches the whole run. Occamy's elastic
// replan instead sheds every loss onto whoever tolerates it best — the
// light compute core's surplus first, the knees last — which is exactly the
// robustness claim under test.
const (
	// degFaultAt is the injection cycle. It serves two masters: the study
	// needs every phase still in flight when the fault lands (the earliest
	// core retires around cycle 5600, so 5000 keeps all sixteen strip loops
	// live), and the sweep's warm-up sharing wants the fault as late as
	// possible — the fault-free prefix [0, degFaultAt) is identical across
	// every failure count, so it is simulated once per architecture,
	// checkpointed, and every sweep point forks from the snapshot.
	degFaultAt = 5000
	// degStall is the forward-progress watchdog threshold: a victim that
	// stops retiring (dead Private half, zero-lane VLS partition) is
	// converted into a DNF data point instead of burning the cycle budget.
	// The longest legitimate progress gap in this sweep is a drain-gated
	// revocation of a few hundred cycles; 25k keeps an order of magnitude
	// of headroom while letting DNF points terminate quickly.
	degStall = 25_000
)

// degChain builds a compute-bound workload: one stream in, one out, a
// 15-op balanced reduction tree per element. The tree shape (rather than a
// serial fold) gives the kernel instruction-level parallelism, so its
// throughput tracks the issue rate and the data-path width instead of pure
// operation latency — the regime where losing ExeBUs actually hurts.
func degChain(name string, repeats int) *workload.Workload {
	leaves := make([]*workload.Expr, 8)
	for i := range leaves {
		c := workload.Const(1.0 + 0.01*float32(i%4+1))
		if i%2 == 0 {
			leaves[i] = workload.Mul(workload.Slot(0), c)
		} else {
			leaves[i] = workload.Add(workload.Slot(0), c)
		}
	}
	for len(leaves) > 1 {
		next := make([]*workload.Expr, 0, len(leaves)/2)
		for i := 0; i < len(leaves); i += 2 {
			if len(leaves)%4 == 0 {
				next = append(next, workload.Add(leaves[i], leaves[i+1]))
			} else {
				next = append(next, workload.Mul(leaves[i], leaves[i+1]))
			}
		}
		leaves = next
	}
	return &workload.Workload{Name: name, Phases: []*workload.Kernel{{
		Name:    name + ".tree",
		Slots:   []workload.LoadSlot{{Stream: 0}},
		Stmts:   []workload.Stmt{{Out: 1, E: leaves[0]}},
		Elems:   512,
		Repeats: repeats,
	}}}
}

// degTriad builds a memory-bound workload: the classic triad.
func degTriad(name string, repeats int) *workload.Workload {
	return &workload.Workload{Name: name, Phases: []*workload.Kernel{{
		Name:  name + ".k",
		Slots: []workload.LoadSlot{{Stream: 0}, {Stream: 1}},
		Stmts: []workload.Stmt{{
			Out: 2,
			E:   workload.Add(workload.Mul(workload.Slot(0), workload.Const(1.5)), workload.Slot(1)),
		}},
		Elems:   512,
		Repeats: repeats,
	}}}
}

func degradationGroup() workload.CoSchedule {
	return workload.CoSchedule{Name: "degradation", W: []*workload.Workload{
		degChain("deg.heavy", 48),
		degTriad("deg.mem0", 70),
		degChain("deg.light", 28),
		degTriad("deg.mem1", 70),
	}}
}

// DegPoint is one (architecture, failed-unit count) measurement.
type DegPoint struct {
	Failed    int
	Completed bool
	// Reason holds the engine error for DNF points ("" when completed).
	Reason string
	Cycles uint64
	Elems  uint64
	// Retention is (Elems/Cycles) normalized to the architecture's own
	// f=0 run; 0 for DNF points.
	Retention float64
	// TTR is the slowest recovery's time-to-repartition (lane-replanning
	// architectures only; see HasTTR).
	TTR        uint64
	TTRPending bool
	HasTTR     bool
}

// Degradation holds the full sweep: for every architecture, points for
// f = 0..Units-1 failed ExeBUs.
type Degradation struct {
	Units   int
	FaultAt uint64
	Points  map[arch.Kind][]DegPoint
}

// Degradation sweeps f = 0..N-1 permanently failed ExeBUs over all four
// architectures. The group is a fixed size — Config.Scale is deliberately not
// applied, because the study's validity depends on the fault landing while
// every phase is still in flight (the group is already sized for quick runs).
//
// All of an architecture's points share the fault-free prefix [0, degFaultAt)
// bit-exactly, so the sweep simulates that prefix once per architecture,
// checkpoints, and forks every failure count from the snapshot with a
// swapped-in fault schedule — the points run serially per architecture (they
// reuse one System), with the four architectures in parallel. Every fork is
// bit-identical to an independent run from cycle zero
// (TestDegradationSnapshotPathIdentical).
func (c Config) Degradation() (*Degradation, error) {
	pair := degradationGroup()
	probe, err := arch.Build(arch.Occamy, pair, arch.Options{Seed: c.Seed})
	if err != nil {
		return nil, err
	}
	units := probe.Cplx.Total()

	out := &Degradation{Units: units, FaultAt: degFaultAt, Points: make(map[arch.Kind][]DegPoint, len(arch.Kinds))}
	for _, kind := range arch.Kinds {
		out.Points[kind] = make([]DegPoint, units)
	}
	err = c.runPoints("degradation", len(arch.Kinds), func(i int) string { return arch.Kinds[i].String() }, func(i int) error {
		kind := arch.Kinds[i]
		return c.degradationForked(kind, pair, units, out.Points[kind])
	})
	if err != nil {
		return nil, err
	}
	if err := out.normalize(); err != nil {
		return nil, err
	}
	return out, nil
}

// normalize sets each completed point's Retention relative to its
// architecture's own fault-free throughput.
func (d *Degradation) normalize() error {
	for kind, pts := range d.Points {
		base := pts[0]
		if !base.Completed {
			return fmt.Errorf("degradation: fault-free %s run did not complete: %s", kind, base.Reason)
		}
		baseTp := float64(base.Elems) / float64(base.Cycles)
		for f := range pts {
			if pts[f].Completed {
				pts[f].Retention = (float64(pts[f].Elems) / float64(pts[f].Cycles)) / baseTp
			}
		}
	}
	return nil
}

// degradationForked runs one architecture's full column: warm the shared
// fault-free prefix up once, checkpoint just before the injection cycle, then
// fork every failure count from the snapshot. Construction matches an
// independent run's (WireInjector keeps the injector registered even at f=0,
// as Faults does for f>0), so every point is bit-identical to a from-zero run
// with that schedule.
func (c Config) degradationForked(kind arch.Kind, pair workload.CoSchedule, units int, pts []DegPoint) error {
	sys, err := arch.Build(kind, pair, arch.Options{
		Seed: c.Seed, LegacyTick: c.LegacyTick, StallCycles: degStall, WireInjector: true,
	})
	if err != nil {
		return fmt.Errorf("degradation %s: %w", kind, err)
	}
	sys.SetInterrupt(c.Interrupt)
	if err := sys.RunTo(degFaultAt); err != nil {
		return fmt.Errorf("degradation %s: warm-up: %w", kind, err)
	}
	snap := sys.Checkpoint()
	for f := 0; f < units; f++ {
		if f == 0 {
			// Verify the snapshot's digest once; the remaining forks restore
			// the same in-process snapshot and skip the digest pass (checking
			// every fork cost about 7% of a -j 1 sweep on a 2-vCPU Xeon).
			if err := sys.RestoreCheckpoint(snap); err != nil {
				return fmt.Errorf("degradation %s f=%d: %w", kind, f, err)
			}
		} else {
			sys.RestoreCheckpointTrusted(snap)
		}
		if f > 0 {
			sys.SetFaultSchedule([]fault.Fault{{Kind: fault.ExeBU, Count: f, At: degFaultAt}})
		} else {
			sys.SetFaultSchedule(nil)
		}
		res, rerr := sys.Run(c.MaxCycles)
		if canceled(rerr) {
			return fmt.Errorf("degradation %s f=%d: %w", kind, f, rerr)
		}
		pts[f] = degPointFrom(f, res, rerr)
	}
	return nil
}

// canceled reports whether err is a cooperative interruption (SIGINT): those
// must abort the sweep rather than masquerade as DNF data points.
func canceled(err error) bool {
	var cerr *sim.CanceledError
	return errors.As(err, &cerr)
}

// degPointFrom folds a run's outcome into a sweep point. A watchdog stall or
// cycle-budget exhaustion is a DNF data point (the partial result still
// carries the cycle and element counts), not a sweep error.
func degPointFrom(f int, res *arch.Result, rerr error) DegPoint {
	p := DegPoint{Failed: f}
	if res != nil {
		p.Cycles, p.Elems = res.Cycles, res.Elems
		for _, r := range res.Recoveries {
			p.HasTTR = true
			if r.Pending {
				p.TTRPending = true
			} else if ttr := r.TimeToRepartition(); ttr > p.TTR {
				p.TTR = ttr
			}
		}
	}
	if rerr != nil {
		p.Reason = rerr.Error()
		return p
	}
	p.Completed = true
	return p
}

// TotalCycles sums the simulated cycles across every sweep point (DNF points
// contribute the cycles they did run).
func (d *Degradation) TotalCycles() uint64 {
	var n uint64
	for _, pts := range d.Points {
		for _, p := range pts {
			n += p.Cycles
		}
	}
	return n
}

// TTRStats summarizes one architecture's completed time-to-repartition
// column across the sweep: min, lower-median p50 and max in cycles over the
// n completed recoveries (points with a recovery window that settled before
// the run ended). n == 0 means the architecture reacts combinationally or
// nothing settled.
func (d *Degradation) TTRStats(kind arch.Kind) (min, p50, max uint64, n int) {
	ttrs := make([]uint64, 0, d.Units)
	for f := 1; f < d.Units; f++ {
		p := d.Points[kind][f]
		if p.HasTTR && !p.TTRPending {
			ttrs = append(ttrs, p.TTR)
		}
	}
	return arch.TTRStats(ttrs)
}

// Render produces the retention and time-to-repartition tables.
func (d *Degradation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Degradation: throughput retention vs. permanently failed ExeBUs\n")
	fmt.Fprintf(&b, "(%d units, fault injected at cycle %d, retention relative to each\narchitecture's own fault-free run; DNF = watchdog stall, retention 0)\n\n",
		d.Units, d.FaultAt)

	t := &metrics.Table{Header: []string{"Failed"}}
	for _, kind := range arch.Kinds {
		t.Header = append(t.Header, kind.String())
	}
	for f := 0; f < d.Units; f++ {
		row := []string{fmt.Sprintf("%d", f)}
		for _, kind := range arch.Kinds {
			p := d.Points[kind][f]
			if !p.Completed {
				row = append(row, "DNF")
				continue
			}
			row = append(row, metrics.FormatPct(p.Retention))
		}
		t.Add(row...)
	}
	b.WriteString(t.String())

	b.WriteString("\nTime to repartition (cycles from fault to a settled lane plan):\n\n")
	tt := &metrics.Table{Header: []string{"Failed"}}
	// Only the lane-repartitioning architectures have a nonzero recovery
	// window; issue gates and register cuts react combinationally.
	repl := []arch.Kind{}
	for _, kind := range arch.Kinds {
		for f := 1; f < d.Units; f++ {
			if p := d.Points[kind][f]; p.TTR > 0 || p.TTRPending {
				repl = append(repl, kind)
				break
			}
		}
	}
	for _, kind := range repl {
		tt.Header = append(tt.Header, kind.String())
	}
	for f := 1; f < d.Units; f++ {
		row := []string{fmt.Sprintf("%d", f)}
		for _, kind := range repl {
			p := d.Points[kind][f]
			switch {
			case p.TTRPending:
				row = append(row, "pending")
			case !p.HasTTR:
				row = append(row, "-")
			default:
				row = append(row, fmt.Sprintf("%d", p.TTR))
			}
		}
		tt.Add(row...)
	}
	b.WriteString(tt.String())
	for _, kind := range repl {
		if min, p50, max, n := d.TTRStats(kind); n > 0 {
			fmt.Fprintf(&b, "%s TTR: min %d  p50 %d  max %d cycles (%d completed recoveries)\n",
				kind, min, p50, max, n)
		}
	}
	b.WriteString("\nOccamy's elastic repartition keeps every core on the surviving units, so\nit retains the most throughput at every failure count; the static splits\nlose whole partitions (Private), strand lanes (VLS) or stall everyone\nthrough the shared structures (FTS).\n")
	return b.String()
}
