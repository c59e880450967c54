package experiments

import (
	"fmt"
	"strings"

	"occamy/internal/arch"
	"occamy/internal/coproc"
	"occamy/internal/metrics"
	"occamy/internal/workload"
)

// Fig2 holds the §2 motivating example measured on all four architectures.
type Fig2 struct {
	Results map[arch.Kind]*arch.Result
	// Timelines[kind][core] is the busy-lane curve per 1000 cycles
	// (the panels of Figure 2(b)-(e)).
	Timelines map[arch.Kind][][]float64
	// LaneEvents is the Occamy run's lane-management log, whose
	// reconfigurations draw the Figure 2(e) staircase.
	LaneEvents []coproc.LaneEvent
}

// Figure2 runs WL#0 (two memory phases of rising intensity) against WL#1
// (one compute phase) on all four architectures.
func (c Config) Figure2() (*Fig2, error) {
	results, systems, err := c.runAllArchs(workload.MotivatingPair(reg), arch.Options{})
	if err != nil {
		return nil, err
	}
	out := &Fig2{
		Results:    results,
		Timelines:  make(map[arch.Kind][][]float64),
		LaneEvents: systems[arch.Occamy].Cplx.LaneEvents(),
	}
	for kind, sys := range systems {
		var tls [][]float64
		for core := range sys.Cores {
			tls = append(tls, sys.Cplx.BusyTimeline(core))
		}
		out.Timelines[kind] = tls
	}
	return out, nil
}

// TotalCycles sums the simulated cycles across the four runs — the numerator
// of the campaign's aggregate sim-cycles/s.
func (f *Fig2) TotalCycles() uint64 {
	var n uint64
	for _, r := range f.Results {
		n += r.Cycles
	}
	return n
}

// Render produces the Figure 2(f)-style statistics table plus ASCII
// timelines for the four architectures.
func (f *Fig2) Render() string {
	var b strings.Builder
	b.WriteString("Figure 2: motivating example (WL#0 memory on Core0, WL#1 compute on Core1)\n\n")
	t := &metrics.Table{Header: []string{
		"Arch", "Time WL0", "Time WL1", "Speedup WL0", "Speedup WL1",
		"Issue WL0", "Issue WL1", "SIMD util",
	}}
	base := f.Results[arch.Private]
	for _, kind := range arch.Kinds {
		r := f.Results[kind]
		t.Add(kind.String(),
			fmt.Sprintf("%d", r.Cores[0].Cycles),
			fmt.Sprintf("%d", r.Cores[1].Cycles),
			metrics.FormatX(float64(base.Cores[0].Cycles)/float64(r.Cores[0].Cycles)),
			metrics.FormatX(float64(base.Cores[1].Cycles)/float64(r.Cores[1].Cycles)),
			fmt.Sprintf("%.2f", r.Cores[0].IssueRate),
			fmt.Sprintf("%.2f", r.Cores[1].IssueRate),
			metrics.FormatPct(r.Utilization),
		)
	}
	b.WriteString(t.String())
	b.WriteString("\nBusy-lane timelines (one char per 1000 cycles, ' '..'%' = 0..32 lanes):\n")
	for _, kind := range arch.Kinds {
		for core, tl := range f.Timelines[kind] {
			b.WriteString(fmt.Sprintf("%-8s core%d |%s|\n", kind, core, metrics.Sparkline(tl, 32)))
		}
	}
	return b.String()
}
