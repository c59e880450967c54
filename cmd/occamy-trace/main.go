// Command occamy-trace turns trace exports into a self-contained HTML page
// with inline SVG charts: the busy-lane timelines, the allocated-lane
// staircase (Figure 2(e)), the per-phase issue rates and the lane manager's
// event log. Traces come from `occamy-sim -trace <dir>` or the library's
// Config.TraceDir.
//
// It also validates telemetry exports against their format contracts, for CI
// smoke checks: Chrome/Perfetto trace-event JSON (from `occamy-sim
// -perfetto`), OpenMetrics text (from `GET /metrics`), and JSONL event logs
// (from `GET /events`).
//
// Usage:
//
//	occamy-sim -w0 spec/WL20 -w1 spec/WL17 -trace out/
//	occamy-trace -o report.html out/*.json
//	occamy-trace -check-perfetto trace.json
//	occamy-trace -check-openmetrics metrics.txt
//	occamy-trace -check-events events.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"occamy/internal/htmlreport"
	"occamy/internal/obs"
	"occamy/internal/telemetry"
	"occamy/internal/trace"
)

// checkFiles validates every argument with check, printing one line per file.
func checkFiles(paths []string, what string, check func(io.Reader) error) {
	for _, path := range paths {
		file, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "occamy-trace:", err)
			os.Exit(1)
		}
		err = check(file)
		file.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "occamy-trace: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s\n", path, what)
	}
}

func main() {
	out := flag.String("o", "trace.html", "output HTML file")
	checkPerfetto := flag.Bool("check-perfetto", false,
		"validate the given files as Chrome trace-event JSON (ph/pid/tid/name fields, monotonic ts) instead of rendering HTML")
	checkOM := flag.Bool("check-openmetrics", false,
		"validate the given files as OpenMetrics text (TYPE declarations, counter _total suffixes, # EOF terminator) instead of rendering HTML")
	checkEvents := flag.Bool("check-events", false,
		"validate the given files as telemetry event logs (one JSON object per line with kind and cycle) instead of rendering HTML")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: occamy-trace [-o report.html] run1.json [run2.json ...]")
		fmt.Fprintln(os.Stderr, "       occamy-trace -check-perfetto trace.json [trace2.json ...]")
		fmt.Fprintln(os.Stderr, "       occamy-trace -check-openmetrics metrics.txt [...]")
		fmt.Fprintln(os.Stderr, "       occamy-trace -check-events events.jsonl [...]")
		os.Exit(2)
	}

	switch {
	case *checkPerfetto:
		checkFiles(flag.Args(), "perfetto trace", obs.ValidatePerfetto)
		return
	case *checkOM:
		checkFiles(flag.Args(), "openmetrics exposition", telemetry.ValidateOpenMetrics)
		return
	case *checkEvents:
		checkFiles(flag.Args(), "event log", telemetry.ValidateEventsJSONL)
		return
	}

	page := htmlreport.New("Occamy trace viewer")
	for _, path := range flag.Args() {
		file, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "occamy-trace:", err)
			os.Exit(1)
		}
		run, err := trace.ReadJSON(file)
		file.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "occamy-trace: %s: %v\n", path, err)
			os.Exit(1)
		}
		run.AddSections(page)
	}

	file, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "occamy-trace:", err)
		os.Exit(1)
	}
	if err := page.Write(file); err != nil {
		fmt.Fprintln(os.Stderr, "occamy-trace:", err)
		os.Exit(1)
	}
	if err := file.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "occamy-trace:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d runs)\n", *out, flag.NArg())
}
