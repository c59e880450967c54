package experiments

import (
	"fmt"
	"io"

	"occamy/internal/arch"
	"occamy/internal/area"
	"occamy/internal/htmlreport"
	"occamy/internal/metrics"
)

// HTMLReport runs the full evaluation and renders it as a self-contained
// HTML page with SVG charts (the visual companion to EXPERIMENTS.md).
func (c Config) HTMLReport(w io.Writer) error {
	page := htmlreport.New("Occamy — elastic SIMD sharing, reproduced")

	// Figure 2: motivating example with allocated-lane staircases.
	f2, err := c.Figure2()
	if err != nil {
		return err
	}
	addFigure2(page, f2)

	// Figures 10/11/13/15 from the sweep.
	sw, err := c.Sweep(false)
	if err != nil {
		return err
	}
	addSweep(page, sw)

	// Figure 12: area model.
	addArea(page)

	// Figure 14 + Table 5.
	f14, err := c.Figure14()
	if err != nil {
		return err
	}
	addFigure14(page, f14)

	// Figure 16.
	f16, err := c.Figure16()
	if err != nil {
		return err
	}
	page.Section("Figure 16 — four-core scalability", htmlreport.PreTable(f16.Render()))

	// Degradation sweep + recovery TTR summary.
	deg, err := c.Degradation()
	if err != nil {
		return err
	}
	addDegradation(page, deg)

	return page.Write(w)
}

// addDegradation renders the fault-degradation study: per-architecture
// throughput retention under failed ExeBUs, and the recovery
// time-to-repartition summary for the lane-replanning architectures.
func addDegradation(page *htmlreport.Page, d *Degradation) {
	labels := make([]string, 0, d.Units)
	for f := 0; f < d.Units; f++ {
		labels = append(labels, fmt.Sprintf("%d", f))
	}
	var series []htmlreport.Series
	for _, kind := range arch.Kinds {
		vals := make([]float64, 0, d.Units)
		for f := 0; f < d.Units; f++ {
			vals = append(vals, 100*d.Points[kind][f].Retention)
		}
		series = append(series, htmlreport.Series{Name: kind.String(), Values: vals})
	}
	blocks := []string{
		htmlreport.P("Throughput retained relative to each architecture's own fault-free " +
			"run, as permanently failed ExeBUs accumulate (x axis = failed units). " +
			"Zero bars are DNF points: the victim stalled and the watchdog ended the run."),
		htmlreport.BarChart("throughput retention (%)", labels, series, 100, "%.0f"),
	}
	for _, kind := range arch.Kinds {
		if min, p50, max, n := d.TTRStats(kind); n > 0 {
			blocks = append(blocks, htmlreport.P(fmt.Sprintf(
				"%s recovery time-to-repartition: min %d, p50 %d, max %d cycles "+
					"across %d completed recoveries.", kind, min, p50, max, n)))
		}
	}
	blocks = append(blocks, htmlreport.PreTable(d.Render()))
	page.Section("Degradation — failed units and recovery TTR", blocks...)
}

// addFigure2 renders the motivating example: per-architecture busy-lane
// curves plus the elastic run's allocated-lane staircase.
func addFigure2(page *htmlreport.Page, f *Fig2) {
	var blocks []string
	blocks = append(blocks, htmlreport.P(
		"WL#0 (two memory-intensive phases of rising operational intensity, Core0) "+
			"co-runs with WL#1 (compute-intensive, Core1) on all four architectures. "+
			"The busy-lane curves are the Figure 2(b)-(e) panels; the staircase is the "+
			"elastic run's configured vector length per core."))
	for _, kind := range arch.Kinds {
		var series []htmlreport.Series
		for core, tl := range f.Timelines[kind] {
			series = append(series, htmlreport.Series{
				Name:   fmt.Sprintf("core%d busy lanes", core),
				Values: tl,
			})
		}
		blocks = append(blocks, htmlreport.LineChart(
			fmt.Sprintf("%s: busy lanes per 1000 cycles", kind), series, "kilocycles", 1000))
	}
	var names []string
	for core := range f.Timelines[arch.Occamy] {
		names = append(names, fmt.Sprintf("core%d allocated lanes", core))
	}
	blocks = append(blocks, htmlreport.LaneStaircase(
		"Occamy: configured lanes over time (Figure 2(e) staircase)",
		names, f.LaneEvents, f.Results[arch.Occamy].Cycles))
	blocks = append(blocks, htmlreport.PreTable(f.Render()))
	page.Section("Figure 2 — motivating example", blocks...)
}

func addSweep(page *htmlreport.Page, sw *metrics.Sweep) {
	labels := make([]string, 0, len(sw.Rows))
	for _, r := range sw.Rows {
		labels = append(labels, r.Name)
	}
	speedups := func(kind arch.Kind, core int) []float64 {
		out := make([]float64, 0, len(sw.Rows))
		for _, r := range sw.Rows {
			out = append(out, r.Speedup(kind, core))
		}
		return out
	}
	page.Section("Figure 10 — Core1 speedups over Private",
		htmlreport.BarChart("Core1 speedup over Private", labels, []htmlreport.Series{
			{Name: "FTS", Values: speedups(arch.FTS, 1)},
			{Name: "VLS", Values: speedups(arch.VLS, 1)},
			{Name: "Occamy", Values: speedups(arch.Occamy, 1)},
		}, 1.0, "%.1f"),
		htmlreport.BarChart("Core0 speedup over Private", labels, []htmlreport.Series{
			{Name: "FTS", Values: speedups(arch.FTS, 0)},
			{Name: "VLS", Values: speedups(arch.VLS, 0)},
			{Name: "Occamy", Values: speedups(arch.Occamy, 0)},
		}, 1.0, "%.1f"),
		htmlreport.PreTable(RenderFigure10(sw)),
	)

	utils := func(kind arch.Kind) []float64 {
		out := make([]float64, 0, len(sw.Rows))
		for _, r := range sw.Rows {
			out = append(out, 100*r.Utilization(kind))
		}
		return out
	}
	page.Section("Figure 11 — SIMD utilization",
		htmlreport.BarChart("SIMD utilization (%)", labels, []htmlreport.Series{
			{Name: "Private", Values: utils(arch.Private)},
			{Name: "FTS", Values: utils(arch.FTS)},
			{Name: "VLS", Values: utils(arch.VLS)},
			{Name: "Occamy", Values: utils(arch.Occamy)},
		}, 100, "%.0f"),
	)

	stalls := func(kind arch.Kind) []float64 {
		out := make([]float64, 0, len(sw.Rows))
		for _, r := range sw.Rows {
			out = append(out, 100*r.RenameStallFrac(kind))
		}
		return out
	}
	page.Section("Figure 13 — rename stalls",
		htmlreport.BarChart("cycles stalled waiting for free registers (%)", labels, []htmlreport.Series{
			{Name: "Private", Values: stalls(arch.Private)},
			{Name: "FTS", Values: stalls(arch.FTS)},
			{Name: "Occamy", Values: stalls(arch.Occamy)},
		}, 70, "%.0f"),
	)

	monitors := make([]float64, 0, len(sw.Rows))
	reconfigs := make([]float64, 0, len(sw.Rows))
	for _, r := range sw.Rows {
		m, g := r.OverheadFrac()
		monitors = append(monitors, 100*m)
		reconfigs = append(reconfigs, 100*g)
	}
	page.Section("Figure 15 — elastic-sharing overhead",
		htmlreport.BarChart("runtime overhead (% of execution)", labels, []htmlreport.Series{
			{Name: "monitoring", Values: monitors},
			{Name: "reconfiguring", Values: reconfigs},
		}, 0.5, "%.1f"),
	)
}

func addArea(page *htmlreport.Page) {
	labels := []string{"Private", "FTS", "VLS", "Occamy"}
	values := make([][]float64, len(arch.Kinds))
	for i, kind := range arch.Kinds {
		b := area.Breakdown(kind, 2, false)
		col := make([]float64, len(area.Components))
		for j, comp := range area.Components {
			col[j] = b[comp]
		}
		values[i] = col
	}
	page.Section("Figure 12 — area breakdown (2 cores, mm²)",
		htmlreport.StackedBarChart("area (mm^2)", labels, area.Components, values, "%.1f"),
		htmlreport.PreTable(area.Render(2, false)+"\n"+area.Render(4, true)),
	)
}

func addFigure14(page *htmlreport.Page, f *Fig14) {
	var series []htmlreport.Series
	for _, label := range f.PhaseOrder {
		series = append(series, htmlreport.Series{Name: label, Values: f.NormalizedTimes[label]})
	}
	var wlSeries []htmlreport.Series
	for _, kind := range []arch.Kind{arch.Private, arch.VLS, arch.Occamy} {
		wlSeries = append(wlSeries, htmlreport.Series{
			Name: kind.String(), Values: f.WL17Timelines[kind],
		})
	}
	page.Section("Figure 14 — case study WL20+WL17",
		htmlreport.LineChart("solo time vs lanes (normalized to 4 lanes; x = 4,8,...,28)", series, "lane step", 1),
		htmlreport.LineChart("WL17 busy lanes over time", wlSeries, "kilocycles", 1000),
		htmlreport.PreTable(f.Render()+"\n"+Table5()),
	)
}
