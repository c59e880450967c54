// Command occamy-trace validates telemetry exports against their format
// contracts, for CI smoke checks: Chrome/Perfetto trace-event JSON (from
// `occamy-sim -perfetto`), OpenMetrics text (from `GET /metrics`), and JSONL
// event logs (from `GET /events`). To see a run's charts, render its page
// with `occamy-sim -html` or open its Perfetto file in ui.perfetto.dev.
//
// Usage:
//
//	occamy-trace -check-perfetto trace.json
//	occamy-trace -check-openmetrics metrics.txt
//	occamy-trace -check-events events.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"occamy/internal/obs"
	"occamy/internal/telemetry"
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
	checkPerfetto := flag.Bool("check-perfetto", false,
		"validate the given files as Chrome trace-event JSON (ph/pid/tid/name fields, monotonic ts)")
	checkOM := flag.Bool("check-openmetrics", false,
		"validate the given files as OpenMetrics text (TYPE declarations, counter _total suffixes, # EOF terminator)")
	checkEvents := flag.Bool("check-events", false,
		"validate the given files as telemetry event logs (one JSON object per line with kind and cycle)")
	flag.Parse()

	if flag.NArg() > 0 {
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
	}
	fmt.Fprintln(os.Stderr, "usage: occamy-trace -check-perfetto trace.json [trace2.json ...]")
	fmt.Fprintln(os.Stderr, "       occamy-trace -check-openmetrics metrics.txt [...]")
	fmt.Fprintln(os.Stderr, "       occamy-trace -check-events events.jsonl [...]")
	os.Exit(2)
}
