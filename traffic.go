package occamy

import (
	"context"
	"fmt"

	"occamy/internal/arch"
	"occamy/internal/traffic"
)

// TrafficReport is the per-tenant SLO outcome of an open-loop traffic run:
// arrival/completion accounting, issue→completion latency percentiles,
// admission-wait percentiles and SLO-attainment curves, per tenant and
// aggregated. Its Summary method renders the table.
type TrafficReport = traffic.Report

// TenantSLO is one tenant's slice of a TrafficReport.
type TenantSLO = traffic.TenantSLO

// RunTraffic simulates the open-loop arrival process described by
// cfg.Traffic on cfg.Arch: tasks drawn from the Table 3 kernel registry
// arrive under a seeded Poisson/bursty/diurnal process across multiple
// tenants (with optional tenant churn), are admitted by the preemptive
// co-processor scheduler, and the run stops at the spec's horizon (or, with
// ",drain", when every task has completed or been canceled).
//
// Unlike Run there is no Schedule: the spec's tenants=/cores=/mix= fields
// define the offered work. Faults, telemetry, the PerfettoPath trace,
// topology, machine tuning and the legacy-tick switch compose as for Run.
// With cfg.Verify every completed task's results are checked against the
// host reference. The report's conservation invariants are always checked;
// a violation is an engine bug and returns an error.
func RunTraffic(cfg Config) (*TrafficReport, error) {
	return RunTrafficContext(context.Background(), cfg)
}

// RunTrafficContext is RunTraffic with cooperative cancellation, mirroring
// RunContext: a canceled ctx kills the run at the engine's next poll point
// with a DiagnosticError wrapping sim.CanceledError; a context that never
// fires leaves the report bit-identical to RunTraffic.
func RunTrafficContext(ctx context.Context, cfg Config) (*TrafficReport, error) {
	if cfg.Traffic == "" {
		return nil, fmt.Errorf("occamy: RunTraffic requires Config.Traffic (an arrival-process spec like \"poisson:load=2\")")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := traffic.ParseSpec(cfg.Traffic)
	if err != nil {
		return nil, fmt.Errorf("occamy: %w", err)
	}
	faults, err := parseFaults(cfg.Faults)
	if err != nil {
		return nil, err
	}
	spec.ApplyDefaults()
	lanesPerCore := cfg.LanesPerCore
	if lanesPerCore <= 0 {
		lanesPerCore = 16
	}
	o := cfg.obsOptions()
	sc, err := traffic.Build(cfg.Arch, spec, arch.Options{
		ExeBUs:        lanesPerCore / 4 * spec.Cores,
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
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.Attach("traffic-"+cfg.Arch.String(), sc.Sys.Tele)
	}
	if ctx != nil && ctx.Done() != nil {
		sc.Sys.SetInterrupt(ctx.Done())
	}
	budget := cfg.MaxCycles
	if budget == 0 {
		budget = sc.DefaultBudget()
	}
	runErr := sc.Run(budget)
	sc.Sys.Tele.Flush(sc.Sys.Engine.Cycle())
	if runErr != nil {
		return nil, runErr
	}
	if err := writePerfetto(cfg.PerfettoPath, o.Sink); err != nil {
		return nil, err
	}
	var rep *TrafficReport
	if cfg.Verify {
		rep, err = sc.ReportVerified(2e-3)
		if err != nil {
			return nil, fmt.Errorf("occamy: functional verification failed: %w", err)
		}
	} else {
		rep = sc.BuildReport()
	}
	if err := rep.Conservation(); err != nil {
		return nil, err
	}
	return rep, nil
}
