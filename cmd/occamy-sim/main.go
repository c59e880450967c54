// Command occamy-sim runs one pair of co-scheduled workloads on one of the
// four SIMD sharing architectures and prints the paper's per-run metrics.
//
// Usage:
//
//	occamy-sim -arch occamy -w0 spec/WL20 -w1 spec/WL17
//	occamy-sim -arch all -w0 cv/WL6 -w1 cv/WL1 -ascii-timeline
//	occamy-sim -arch occamy -telemetry 127.0.0.1:9464 -perfetto run.json
//	occamy-sim -arch all -scale 0.25 -html page.html
//	occamy-sim -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"occamy"
	"occamy/internal/htmlreport"
	"occamy/internal/profiling"
)

// resolveWorkload accepts a Table 3 name or "@file.json" for a custom
// workload definition.
func resolveWorkload(spec string) (occamy.WorkloadRef, error) {
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(strings.TrimPrefix(spec, "@"))
		if err != nil {
			return occamy.WorkloadRef{}, err
		}
		return occamy.WorkloadFromJSON(data)
	}
	return occamy.WorkloadByName(spec), nil
}

func main() {
	var (
		archName = flag.String("arch", "occamy", "architecture: private|fts|vls|occamy|all")
		w0       = flag.String("w0", "spec/WL20", "workload for Core0 (memory side); @file.json for a custom definition")
		w1       = flag.String("w1", "spec/WL17", "workload for Core1 (compute side); @file.json for a custom definition")
		scale    = flag.Float64("scale", 1.0, "trip-count scale (use <1 for quick runs)")
		seed     = flag.Uint64("seed", 1, "workload data seed")
		asciiTL  = flag.Bool("ascii-timeline", false, "print busy-lane timelines as ascii strips")
		teleAddr = flag.String("telemetry", "", "serve live telemetry on this address (e.g. 127.0.0.1:9464): GET /metrics (OpenMetrics), /events (JSONL), /stream (SSE)")
		teleWin  = flag.Uint64("telemetry-window", 0, "telemetry sampling window in sim cycles (0 = default 4096)")
		teleHold = flag.Duration("telemetry-hold", 0, "keep the telemetry server up this long after the runs finish (interrupt ends the hold early)")
		list     = flag.Bool("list", false, "list available workloads and exit")
		htmlPath = flag.String("html", "", "render every run as one HTML page (a section per architecture): busy lanes, the allocated-lane staircase, per-phase issue rates and the lane-event log; not with -traffic")
		oiTable  = flag.Bool("oi", false, "print each workload's per-phase operational intensities")
		machine  = flag.String("machine", "", "JSON file overriding Table 4 hardware parameters (dram_latency_cycles, vec_cache_kb, phys_regs, ...)")
		profile  = flag.Bool("profile", false, "enable cycle attribution and print the top-down table and latency histograms")
		perfetto = flag.String("perfetto", "", "write the run's Chrome/Perfetto trace-event JSON file (open in ui.perfetto.dev): phase and drain slices, telemetry windows as counter tracks, events as instants; with -arch all, the architecture name is appended to the stem")
		stats    = flag.Bool("stats", false, "dump the full sorted counter registry (implies -profile)")
		legacy   = flag.Bool("legacy-tick", false, "force the every-cycle engine path (disable skip-ahead and parking; results are bit-identical)")
		faults   = flag.String("faults", "", `fault-injection spec: "kind[:target...]@at[+for]; ..." (e.g. "exebu:2@10000+5000; xmit:core0@2000+8000"), or @file.json`)
		trafSpec = flag.String("traffic", "", `open-loop traffic spec instead of -w0/-w1: "process:key=value,..." (e.g. "poisson:load=2,tenants=6,churn=8000:20000"); prints the per-tenant SLO report`)
		clusters = flag.Int("clusters", 1, "number of co-processor clusters (1 = the flat machine; cores and ExeBUs must divide evenly over clusters)")
		hopLat   = flag.Uint64("hop-lat", 0, "CPU→coproc fabric hop latency in cycles (0 = direct wiring, bit-identical to the flat machine)")
		hopBW    = flag.Int("hop-bw", 0, "fabric transmissions a cluster accepts per cycle (0 = unlimited)")
		stall    = flag.Uint64("stall-cycles", 0, "abort with a diagnostic dump if no instruction retires for this many cycles (0 = the DefaultConfig watchdog)")
		cpuPr    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memPr    = flag.String("memprofile", "", "write a heap profile to this file")
		allocs   = flag.Bool("allocs", false, "print an allocation/GC report for the run to stderr")
	)
	flag.Parse()

	if *list {
		for _, name := range occamy.Workloads() {
			fmt.Println(name)
		}
		return
	}

	archs := map[string]occamy.Arch{
		"private": occamy.Private, "fts": occamy.Temporal,
		"vls": occamy.StaticSpatial, "occamy": occamy.Elastic,
	}
	var kinds []occamy.Arch
	if strings.ToLower(*archName) == "all" {
		kinds = occamy.Architectures()
	} else {
		k, ok := archs[strings.ToLower(*archName)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown architecture %q\n", *archName)
			os.Exit(2)
		}
		kinds = []occamy.Arch{k}
	}

	var tuning *occamy.MachineTuning
	if *machine != "" {
		data, err := os.ReadFile(*machine)
		if err != nil {
			fmt.Fprintf(os.Stderr, "machine: %v\n", err)
			os.Exit(2)
		}
		tuning = new(occamy.MachineTuning)
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(tuning); err != nil {
			fmt.Fprintf(os.Stderr, "machine %s: %v\n", *machine, err)
			os.Exit(2)
		}
	}

	if *htmlPath != "" && *trafSpec != "" {
		fmt.Fprintln(os.Stderr, "-html renders co-scheduled runs; it does not apply to -traffic")
		os.Exit(2)
	}
	var teleSrv *occamy.TelemetryServer
	config := func(kind occamy.Arch) occamy.Config {
		cfg := occamy.DefaultConfig(kind)
		cfg.Seed = *seed
		cfg.Machine = tuning
		cfg.PerfettoPath = perfettoPath(*perfetto, kind, len(kinds) > 1)
		cfg.LegacyTick = *legacy
		cfg.Faults = *faults
		cfg.Telemetry = teleSrv
		cfg.TelemetryWindow = *teleWin
		if *clusters != 1 || *hopLat != 0 || *hopBW != 0 {
			cfg.Topology = &occamy.Topology{Clusters: *clusters, HopLatency: *hopLat, HopBandwidth: *hopBW}
		}
		if *stall > 0 {
			cfg.StallCycles = *stall
		}
		if *trafSpec != "" {
			cfg.MaxCycles = 0 // let the spec's horizon size the budget
			cfg.Traffic = *trafSpec
		} else {
			cfg.Scale = *scale
			cfg.Profile = *profile || *stats
		}
		return cfg
	}
	for _, kind := range kinds {
		if err := config(kind).Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "%s\n", err)
			os.Exit(2)
		}
	}

	prof, err := profiling.Start(*cpuPr, *memPr, *allocs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	if *teleAddr != "" {
		teleSrv = occamy.NewTelemetryServer()
		if err := teleSrv.Start(*teleAddr); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s (/metrics, /events, /stream)\n", teleSrv.Addr())
	}
	if *trafSpec != "" {
		// Open-loop traffic mode: the spec defines the offered work, so the
		// -w0/-w1 schedule path (and its workload resolution) is bypassed.
		for _, kind := range kinds {
			cfg := config(kind)
			rep, err := occamy.RunTraffic(cfg)
			if err != nil {
				var derr *occamy.DiagnosticError
				if errors.As(err, &derr) {
					fmt.Fprintln(os.Stderr, derr.Dump)
				}
				fmt.Fprintf(os.Stderr, "%s: %v\n", kind, err)
				os.Exit(1)
			}
			fmt.Printf("=== %s ===\n%s", kind, rep.Summary())
			if cfg.PerfettoPath != "" {
				fmt.Printf("perfetto trace written to %s (open in ui.perfetto.dev)\n", cfg.PerfettoPath)
			}
		}
	} else {
		r0, err := resolveWorkload(*w0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "w0: %v\n", err)
			os.Exit(2)
		}
		r1, err := resolveWorkload(*w1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "w1: %v\n", err)
			os.Exit(2)
		}
		sched := occamy.NewSchedule(fmt.Sprintf("%s+%s", r0.Name(), r1.Name()), r0, r1)
		if *oiTable {
			for _, ref := range []occamy.WorkloadRef{r0, r1} {
				fmt.Printf("%s phases (oi_issue, oi_mem): %v\n", ref.Name(), ref.PhaseOIs())
			}
		}
		// The page is created before the first simulated cycle, so an
		// unwritable path costs no simulation.
		var page *htmlreport.Page
		var pageFile *os.File
		if *htmlPath != "" {
			if pageFile, err = os.Create(*htmlPath); err != nil {
				fmt.Fprintf(os.Stderr, "html: %v\n", err)
				os.Exit(1)
			}
			page = htmlreport.New("occamy-sim: " + sched.Name())
		}
		for _, kind := range kinds {
			cfg := config(kind)
			rep, err := occamy.Run(cfg, sched)
			if err != nil {
				if pageFile != nil {
					pageFile.Close()
					os.Remove(*htmlPath)
				}
				// A wedged or budget-exhausted run carries a machine-state dump —
				// print it so the user sees *where* it stopped, not just that it
				// stopped.
				var derr *occamy.DiagnosticError
				if errors.As(err, &derr) {
					fmt.Fprintln(os.Stderr, derr.Dump)
				}
				fmt.Fprintf(os.Stderr, "%s: %v\n", kind, err)
				os.Exit(1)
			}
			fmt.Print(rep.Summary())
			if *asciiTL {
				for c := range rep.Cores {
					fmt.Printf("  core%d |%s|\n", c, rep.AsciiTimeline(c, 32))
				}
			}
			if *profile || *stats {
				fmt.Println("\ntop-down cycle attribution:")
				fmt.Print(rep.TopDown())
				for _, h := range rep.Histograms {
					fmt.Print(h)
				}
				// Host-side, so on stderr: stdout stays byte-identical
				// under -legacy-tick.
				fmt.Fprintf(os.Stderr, "%s %s", kind, rep.Host)
			}
			if *stats {
				fmt.Println("\ncounters:")
				for _, name := range sortedKeys(rep.Stats) {
					fmt.Printf("  %-40s %d\n", name, rep.Stats[name])
				}
			}
			if cfg.PerfettoPath != "" {
				fmt.Printf("perfetto trace written to %s (open in ui.perfetto.dev)\n", cfg.PerfettoPath)
			}
			if page != nil {
				addSections(page, rep)
			}
		}
		if page != nil {
			err := page.Write(pageFile)
			if cerr := pageFile.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "html: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("html page written to %s\n", *htmlPath)
		}
	}
	if teleSrv != nil {
		if *teleHold > 0 {
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt)
			fmt.Fprintf(os.Stderr, "telemetry: holding server for %s (interrupt to finish)\n", *teleHold)
			select {
			case <-time.After(*teleHold):
			case <-sig:
			}
		}
		teleSrv.Close()
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
}

// perfettoPath derives the per-architecture output path: with -arch all,
// "trace.json" becomes "trace-Occamy.json" etc. so runs don't clobber each
// other.
func perfettoPath(base string, kind occamy.Arch, multi bool) string {
	if base == "" || !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + kind.String() + ext
}

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
