// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the simulator: the motivating example (Figure 2), the
// 25-pair speedup/utilization sweep (Figures 10/11), the area model
// (Figure 12), the rename-stall study (Figure 13), the WL20+WL17 case study
// (Figure 14), the attainable-performance table (Table 5), the overhead
// accounting (Figure 15) and the four-core scalability groups (Figure 16) —
// plus the ablations DESIGN.md calls out.
//
// Both cmd/occamy-bench and the root-level testing.B benchmarks drive this
// package; EXPERIMENTS.md is generated from its renderers.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"

	"occamy/internal/arch"
	"occamy/internal/metrics"
	"occamy/internal/telemetry"
	"occamy/internal/workload"
)

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies workload trip counts; 1.0 is the calibrated full
	// size, smaller values give quick approximate runs.
	Scale float64
	// Seed initializes workload data.
	Seed uint64
	// MaxCycles bounds each simulation.
	MaxCycles uint64
	// Parallel bounds concurrent simulations in sweeps (occamy-bench -j);
	// zero means one per host CPU.
	Parallel int
	// LegacyTick forces the every-cycle engine path, disabling skip-ahead
	// fast-forwarding (A/B validation; results are bit-identical).
	LegacyTick bool
	// Telemetry, when non-nil, attaches every experiment run's live sampler
	// to the given HTTP server (occamy-bench -telemetry): long campaigns
	// become observable mid-flight via GET /metrics, /events and /stream.
	// The server retains the newest runs up to its cap.
	Telemetry *telemetry.Server
	// TelemetryWindow is the sampling window in cycles (0 = default 4096);
	// only meaningful with Telemetry set.
	TelemetryWindow uint64
	// Interrupt, when non-nil, cancels every experiment run cooperatively
	// when the channel closes (occamy-bench wires SIGINT here): in-flight
	// simulations stop at the engine's next poll point with a
	// sim.CanceledError. A channel that never closes leaves all results
	// bit-identical.
	Interrupt <-chan struct{}
}

// Default returns the full-size configuration.
func Default() Config {
	return Config{Scale: 1.0, Seed: 1, MaxCycles: 400_000_000}
}

// Quick returns a reduced configuration for smoke tests (~10x faster).
func Quick() Config {
	return Config{Scale: 0.25, Seed: 1, MaxCycles: 100_000_000}
}

func (c Config) sched(s workload.CoSchedule) workload.CoSchedule {
	if c.Scale > 0 && c.Scale != 1.0 {
		return s.Scaled(c.Scale)
	}
	return s
}

// runOne builds and runs one (architecture, schedule) combination the way
// every sweep point does: scaled schedule, shared seed/tick options,
// interrupt and telemetry wiring.
func (c Config) runOne(kind arch.Kind, s workload.CoSchedule, opts arch.Options) (*arch.System, *arch.Result, error) {
	opts.Seed = c.Seed
	opts.LegacyTick = c.LegacyTick
	if c.Telemetry != nil && opts.Telemetry == nil {
		opts.Telemetry = &telemetry.Config{Window: c.TelemetryWindow}
	}
	sys, err := arch.Build(kind, c.sched(s), opts)
	if err != nil {
		return nil, nil, err
	}
	sys.SetInterrupt(c.Interrupt)
	c.Telemetry.Attach(s.Name+"-"+kind.String(), sys.Tele)
	res, err := sys.Run(c.MaxCycles)
	sys.Tele.Flush(sys.Engine.Cycle())
	if err != nil {
		return nil, nil, err
	}
	return sys, res, nil
}

// runAllArchs runs a schedule on all four architectures back-to-back.
func (c Config) runAllArchs(s workload.CoSchedule, opts arch.Options) (map[arch.Kind]*arch.Result, map[arch.Kind]*arch.System, error) {
	results := make(map[arch.Kind]*arch.Result, 4)
	systems := make(map[arch.Kind]*arch.System, 4)
	for _, kind := range arch.Kinds {
		sys, res, err := c.runOne(kind, s, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("%s on %s: %w", s.Name, kind, err)
		}
		results[kind] = res
		systems[kind] = sys
	}
	return results, systems, nil
}

// Registry returns the shared Table 3 registry.
func Registry() *workload.Registry { return reg }

var reg = workload.NewRegistry()

// Sweep runs every Figure 10 pair on every architecture. Pairs execute in
// parallel across the host's CPUs — every simulated system is fully
// independent and deterministic, so the results are identical to a serial
// sweep.
func (c Config) Sweep(verify bool) (*metrics.Sweep, error) {
	pairs := workload.Figure10Pairs(reg)
	rows := make([]metrics.PairRow, len(pairs))
	err := c.runPoints("pairs", len(pairs), func(i int) string { return pairs[i].Name }, func(i int) error {
		p := pairs[i]
		results, systems, err := c.runAllArchs(p, arch.Options{})
		if err != nil {
			return err
		}
		if verify {
			for kind, sys := range systems {
				if err := sys.CheckResults(2e-3); err != nil {
					return fmt.Errorf("%s on %s: %w", p.Name, kind, err)
				}
			}
		}
		rows[i] = metrics.PairRow{Name: p.Name, Results: results}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &metrics.Sweep{Rows: rows}, nil
}

// runPoints is every sweep's worker pool: it runs points 0..n-1 of the named
// sweep concurrently, at most maxParallel at a time, each under the pprof
// labels sweep=name and point=label(i). It waits for every point and returns
// the first error in point order, so a failing sweep reports the same error
// at any -j.
func (c Config) runPoints(name string, n int, label func(i int) string, run func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.maxParallel())
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pprof.Do(context.Background(), pprof.Labels("sweep", name, "point", label(i)), func(context.Context) {
				errs[i] = run(i)
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// maxParallel bounds concurrent simulations (each uses one goroutine and a
// few hundred MB-cycles of work): Config.Parallel when set, else one per
// host CPU.
func (c Config) maxParallel() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}
