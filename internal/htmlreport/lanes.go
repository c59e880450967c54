package htmlreport

import "occamy/internal/coproc"

// Staircase replays a co-processor lane log into each of cores' allocated
// SIMD lanes over time, the y-axis of Figure 2(e): every core starts at zero
// lanes at cycle 0, and each reconfigure event steps its core to the event's
// vector length, in lanes.
func Staircase(events []coproc.LaneEvent, cores int) [][]Step {
	out := make([][]Step, cores)
	for c := range out {
		out[c] = []Step{{}}
	}
	for _, e := range events {
		if e.Kind == "reconfigure" && e.Core < cores {
			out[e.Core] = append(out[e.Core], Step{X: float64(e.Cycle), Y: float64(coproc.LanesPerGranule * e.VL)})
		}
	}
	return out
}

// LaneStaircase charts the Staircase of a lane log with one series per name,
// up to the run's last cycle. A log without reconfigure events (a static
// architecture) renders a note instead of an empty chart.
func LaneStaircase(title string, names []string, events []coproc.LaneEvent, cycles uint64) string {
	steps := Staircase(events, len(names))
	peak, moves := 0.0, 0
	for _, ss := range steps {
		moves += len(ss) - 1
		for _, s := range ss {
			peak = max(peak, s.Y)
		}
	}
	if moves == 0 {
		return P("No reconfiguration events: the vector lengths were fixed for the whole run.")
	}
	return StepChart(title, names, steps, float64(cycles), peak, "cycles")
}
