package main

import (
	"fmt"
	"strings"

	"occamy"
	"occamy/internal/htmlreport"
)

// addSections renders one run as a page section with the views of Figure 2:
// the busy-lane chart (2(b)-(d)), the allocated-lane staircase (2(e)), the
// per-phase cycles and issue rates (2(f)) and the lane-management event log.
func addSections(page *htmlreport.Page, r *occamy.Report) {
	names := make([]string, len(r.Cores))
	busy := make([]htmlreport.Series, len(r.Cores))
	for c, core := range r.Cores {
		names[c] = fmt.Sprintf("core%d %s", c, core.Workload)
		busy[c] = htmlreport.Series{Name: names[c], Values: r.LaneTimelines[c]}
	}
	page.Section(fmt.Sprintf("%s on %s", r.Schedule, r.Arch),
		htmlreport.P(fmt.Sprintf(
			"%d cycles, SIMD utilization %.1f%%; %d lane-management events.",
			r.Cycles, 100*r.Utilization, len(r.LaneEvents))),
		htmlreport.LineChart("Busy SIMD lanes over time", busy, "time (buckets of 1000 cycles)", 1),
		htmlreport.LaneStaircase("Allocated SIMD lanes", names, r.LaneEvents, r.Cycles),
		htmlreport.PreTable(phaseTable(r)),
		htmlreport.PreTable(eventLog(r.LaneEvents, 200)),
	)
}

// phaseTable renders each core's per-phase cycles and issue rates, and a
// total row per core.
func phaseTable(r *occamy.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-24s %-7s %12s %10s\n", "core", "workload", "phase", "cycles", "issue/cy")
	for c, core := range r.Cores {
		for p, cycles := range core.PhaseCycles {
			fmt.Fprintf(&b, "%-6d %-24s %-7d %12d %10.2f\n",
				c, core.Workload, p, cycles, core.PhaseIssueRates[p])
		}
		fmt.Fprintf(&b, "%-6d %-24s %-7s %12d %10.2f\n",
			c, core.Workload, "all", core.Cycles, core.IssueRate)
	}
	return b.String()
}

// eventLog renders up to max lane-management events: the whole log when it
// fits, its head and tail otherwise.
func eventLog(events []occamy.LaneEvent, max int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %-5s %-14s %4s  %s\n", "cycle", "core", "event", "vl", "decisions")
	write := func(es []occamy.LaneEvent) {
		for _, e := range es {
			dec := ""
			if len(e.Decisions) > 0 {
				dec = fmt.Sprint(e.Decisions)
			}
			fmt.Fprintf(&b, "%10d %-5d %-14s %4d  %s\n", e.Cycle, e.Core, e.Kind, e.VL, dec)
		}
	}
	if len(events) <= max {
		write(events)
		return b.String()
	}
	head := max / 2
	write(events[:head])
	fmt.Fprintf(&b, "... %d events elided ...\n", len(events)-max)
	write(events[len(events)-(max-head):])
	return b.String()
}
