// Command occamy-bench regenerates every table and figure of the paper's
// evaluation (§7) and prints a consolidated report — the source of the
// numbers recorded in EXPERIMENTS.md.
//
// Usage:
//
//	occamy-bench                 # everything, full scale
//	occamy-bench -exp fig10      # one experiment
//	occamy-bench -scale 0.25     # quick approximate pass
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"occamy/internal/area"
	"occamy/internal/experiments"
	"occamy/internal/profiling"
	"occamy/internal/sim"
	"occamy/internal/telemetry"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: table3|table4|fig2|fig10|fig11|fig12|fig13|fig14|table5|fig15|fig16|topdown|ablations|dse|degradation|traffic|all, or scale (hierarchical 4→64-core sweep; never part of all)")
		tspec  = flag.String("traffic-spec", "", "base arrival-process spec for -exp traffic (\"\" = the default 4-tenant Poisson mix; the load= field is swept)")
		tfault = flag.Bool("faults", false, "double the -exp traffic sweep with a transient-fault variant (2 ExeBUs lost through the middle half of the horizon)")
		scale  = flag.Float64("scale", 1.0, "trip-count scale")
		seed   = flag.Uint64("seed", 1, "workload data seed")
		html   = flag.String("html", "", "write a self-contained HTML report (SVG charts) to this file and exit")
		par    = flag.Int("j", 0, "max concurrent simulations in sweeps (0 = one per CPU)")
		leg    = flag.Bool("legacy-tick", false, "force the every-cycle engine path (disable skip-ahead; results are bit-identical)")
		teleA  = flag.String("telemetry", "", "serve live telemetry for the campaign's runs on this address: GET /metrics (OpenMetrics), /events (JSONL), /stream (SSE)")
		teleW  = flag.Uint64("telemetry-window", 0, "telemetry sampling window in sim cycles (0 = default 4096)")
		cpuPr  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memPr  = flag.String("memprofile", "", "write a heap profile to this file")
		allocs = flag.Bool("allocs", false, "print an allocation/GC report for the run to stderr")
	)
	flag.Parse()

	cfg := experiments.Default()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Parallel = *par
	cfg.LegacyTick = *leg

	// SIGINT cancels outstanding simulations cooperatively: every engine
	// stops at its next poll point, the section in flight reports the
	// cancellation, and the campaign exits with a clear marker — sections
	// already printed above it are complete and trustworthy.
	interrupt := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "occamy-bench: SIGINT: canceling outstanding runs...")
		close(interrupt)
		signal.Stop(sigCh) // a second ^C kills the process the normal way
	}()
	cfg.Interrupt = interrupt

	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	fail := func(err error) {
		var cerr *sim.CanceledError
		if errors.As(err, &cerr) {
			fmt.Println("\nINTERRUPTED — campaign canceled by SIGINT.")
			fmt.Println("Sections printed above completed before the interrupt; the")
			fmt.Println("section in flight was canceled and is not reported.")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "occamy-bench:", err)
		os.Exit(1)
	}

	if *teleA != "" {
		srv := telemetry.NewServer()
		if err := srv.Start(*teleA); err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s (/metrics, /events, /stream)\n", srv.Addr())
		cfg.Telemetry = srv
		cfg.TelemetryWindow = *teleW
	}

	prof, err := profiling.Start(*cpuPr, *memPr, *allocs)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fail(err)
		}
	}()

	if *html != "" {
		file, err := os.Create(*html)
		if err != nil {
			fail(err)
		}
		if err := cfg.HTMLReport(file); err != nil {
			fail(err)
		}
		if err := file.Close(); err != nil {
			fail(err)
		}
		fmt.Println("wrote", *html)
		return
	}
	section := func(s string) { fmt.Printf("\n%s\n%s\n\n", s, strings.Repeat("=", len(s))) }
	// aggregate reports a sweep section's simulator throughput: total
	// simulated cycles (skip-ahead included — elided cycles are simulated
	// cycles) over the section's wall clock.
	aggregate := func(cycles uint64, start time.Time) {
		s := time.Since(start).Seconds()
		if cycles == 0 || s <= 0 {
			return
		}
		fmt.Printf("aggregate: %.2fM sim-cycles/s (%d simulated cycles in %.2fs)\n",
			float64(cycles)/s/1e6, cycles, s)
	}

	if want("table3") {
		section("Table 3 — workloads")
		fmt.Println(experiments.RenderTable3())
	}
	if want("table4") {
		section("Table 4 — configuration")
		fmt.Println(experiments.RenderTable4())
	}

	if want("fig2") {
		section("Figure 2 — motivating example")
		t0 := time.Now()
		f, err := cfg.Figure2()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
		aggregate(f.TotalCycles(), t0)
	}

	needSweep := want("fig10") || want("fig11") || want("fig13") || want("fig15")
	if needSweep {
		section("Figures 10/11/13/15 — 25-pair sweep (4 architectures, verified)")
		t0 := time.Now()
		sw, err := cfg.Sweep(true)
		if err != nil {
			fail(err)
		}
		if want("fig10") {
			fmt.Println(experiments.RenderFigure10(sw))
		}
		if want("fig11") {
			fmt.Println(experiments.RenderFigure11(sw))
		}
		if want("fig13") {
			fmt.Println(experiments.RenderFigure13(sw))
		}
		if want("fig15") {
			fmt.Println(experiments.RenderFigure15(sw))
		}
		aggregate(sw.TotalCycles(), t0)
	}

	if want("fig12") {
		section("Figure 12 — area breakdown")
		fmt.Println(area.Render(2, false))
		fmt.Println(area.Render(4, true))
	}

	if want("fig14") || want("table5") {
		section("Figure 14 / Table 5 — case study WL20+WL17")
		if want("fig14") {
			f, err := cfg.Figure14()
			if err != nil {
				fail(err)
			}
			fmt.Println(f.Render())
		}
		if want("table5") {
			fmt.Println(experiments.Table5())
		}
	}

	if want("topdown") {
		section("Top-down cycle attribution — motivating pair, 4 architectures")
		s, err := cfg.TopDownMotivating()
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
	}

	if want("fig16") {
		section("Figure 16 — four-core scalability")
		f, err := cfg.Figure16()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
	}

	if want("ablations") {
		section("Ablations")
		s, err := cfg.AblationMonitorPeriod([]int{1, 4, 16, 64})
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
		fmt.Println(experiments.AblationIssueCeiling())
		s, err = cfg.AblationFTSRegisters([]int{128, 160, 224, 320})
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
		s, err = cfg.AblationDefaultVL([]int{1, 2, 4})
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
	}

	if want("dse") {
		section("Design-space exploration (machine-parameter sweeps)")
		s, err := cfg.DSEDefaults()
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
	}

	if want("degradation") {
		section("Degradation — throughput retention under failed ExeBUs")
		t0 := time.Now()
		d, err := cfg.Degradation()
		if err != nil {
			fail(err)
		}
		fmt.Println(d.Render())
		aggregate(d.TotalCycles(), t0)
	}

	if want("traffic") {
		section("Traffic — open-loop overload sweep with per-tenant SLOs")
		t0 := time.Now()
		tr, err := cfg.Traffic(*tspec, *tfault)
		if err != nil {
			fail(err)
		}
		fmt.Println(tr.Render())
		aggregate(tr.TotalCycles(), t0)
	}

	// The hierarchical sweep (4→64 cores × 1→4 clusters × 4 architectures =
	// 60 full runs) is opt-in: it extends the paper's evaluation rather than
	// reproducing a figure, and at full scale it dominates the campaign.
	if strings.EqualFold(*exp, "scale") {
		section("Scalability — hierarchical lane management, 4→64 cores")
		t0 := time.Now()
		s, err := cfg.Scalability(nil, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(s.Render())
		aggregate(s.TotalCycles(), t0)
	}
}
