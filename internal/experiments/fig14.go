package experiments

import (
	"fmt"
	"strings"

	"occamy/internal/arch"
	"occamy/internal/isa"
	"occamy/internal/metrics"
	"occamy/internal/roofline"
	"occamy/internal/workload"
)

// Fig14 holds the §7.4 Case 1 study of WL20+WL17.
type Fig14 struct {
	// NormalizedTimes[phaseName][g-1] is the phase's solo execution time
	// at g granules, normalized to 1 granule (Figure 14(a)).
	NormalizedTimes map[string][]float64
	PhaseOrder      []string
	// Results on all four architectures (Figure 14(c)).
	Results map[arch.Kind]*arch.Result
	// WL17Timelines[kind] is Core1's busy-lane curve (Figure 14(b)).
	WL17Timelines map[arch.Kind][]float64
}

// idleWorkload is a minimal co-runner used for solo phase measurements.
func idleWorkload() *workload.Workload {
	return &workload.Workload{
		Name: "idle",
		Phases: []*workload.Kernel{{
			Name:  "idle",
			Slots: []workload.LoadSlot{{Stream: 0}},
			Stmts: []workload.Stmt{{Out: 1, E: workload.Mul(workload.Slot(0), workload.Const(2))}},
			Elems: 64, Repeats: 1,
		}},
	}
}

// soloCycles runs one kernel alone at a fixed granule count and returns its
// completion time.
func (c Config) soloCycles(k *workload.Kernel, granules int) (uint64, error) {
	w := &workload.Workload{Name: "solo/" + k.Name, Phases: []*workload.Kernel{k}}
	sched := workload.CoSchedule{Name: w.Name, W: []*workload.Workload{w, idleWorkload()}}
	rest := 8 - granules
	if rest < 1 {
		rest = 1
	}
	_, res, err := c.runOne(arch.VLS, sched, arch.Options{StaticVLs: []int{granules, rest}})
	if err != nil {
		return 0, err
	}
	return res.Cores[0].Cycles, nil
}

// Figure14 reproduces the case study: the per-phase lane sweep, the four-
// architecture co-run, and WL17's lane timeline.
func (c Config) Figure14() (*Fig14, error) {
	out := &Fig14{
		NormalizedTimes: make(map[string][]float64),
		Results:         make(map[arch.Kind]*arch.Result),
		WL17Timelines:   make(map[arch.Kind][]float64),
	}

	// (a) Solo lane sweep for WL20.p1 (sff2), WL20.p2 (sff5), WL17 (wsm52).
	phases := []struct {
		label  string
		kernel string
	}{
		{"WL20.p1(sff2)", "sff2"},
		{"WL20.p2(sff5)", "sff5"},
		{"WL17(wsm52)", "wsm52"},
	}
	for _, ph := range phases {
		k := reg.Kernel(ph.kernel)
		var times []float64
		for g := 1; g <= 7; g++ {
			cyc, err := c.soloCycles(k, g)
			if err != nil {
				return nil, err
			}
			times = append(times, float64(cyc))
		}
		base := times[0]
		for i := range times {
			times[i] /= base
		}
		out.NormalizedTimes[ph.label] = times
		out.PhaseOrder = append(out.PhaseOrder, ph.label)
	}

	// (b)+(c) Co-run on all four architectures.
	results, systems, err := c.runAllArchs(workload.CaseStudyPair(reg, 1), arch.Options{})
	if err != nil {
		return nil, err
	}
	out.Results = results
	for kind, sys := range systems {
		out.WL17Timelines[kind] = sys.Cplx.BusyTimeline(1)
	}
	return out, nil
}

// Render produces the three panels as text.
func (f *Fig14) Render() string {
	var b strings.Builder
	b.WriteString("Figure 14: case study WL20 + WL17 (<memory, compute>)\n\n")
	b.WriteString("(a) Solo execution time vs lanes, normalized to 4 lanes:\n")
	t := &metrics.Table{Header: []string{"Phase", "4", "8", "12", "16", "20", "24", "28"}}
	for _, label := range f.PhaseOrder {
		row := []string{label}
		for _, v := range f.NormalizedTimes[label] {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.Add(row...)
	}
	b.WriteString(t.String())
	b.WriteString("\n(b) WL17 busy lanes over time:\n")
	for _, kind := range []arch.Kind{arch.Private, arch.VLS, arch.Occamy} {
		b.WriteString(fmt.Sprintf("%-8s |%s|\n", kind, metrics.Sparkline(f.WL17Timelines[kind], 32)))
	}
	b.WriteString("\n(c) Per-phase SIMD issue rates:\n")
	t2 := &metrics.Table{Header: []string{"Arch", "20.p1", "20.p2", "17", "stall frac c0", "stall frac c1"}}
	for _, kind := range arch.Kinds {
		r := f.Results[kind]
		row := []string{kind.String()}
		for _, rate := range r.Cores[0].PhaseIssueRates {
			row = append(row, fmt.Sprintf("%.2f", rate))
		}
		for _, rate := range r.Cores[1].PhaseIssueRates {
			row = append(row, fmt.Sprintf("%.2f", rate))
		}
		row = append(row,
			metrics.FormatPct(r.Cores[0].RenameStallFrac),
			metrics.FormatPct(r.Cores[1].RenameStallFrac))
		t2.Add(row...)
	}
	b.WriteString(t2.String())
	return b.String()
}

// Table5 reproduces the attainable-performance table for WL8.p1
// (oi_issue 0.17, oi_mem 0.25) directly from the roofline model.
func Table5() string {
	m := roofline.Default()
	oi := isa.OIPair{Issue: 1.0 / 6.0, Mem: 0.25}
	var b strings.Builder
	b.WriteString("Table 5: attainable performance (GFLOP/s) for WL8.p1 (oi_issue=0.17, oi_mem=0.25)\n\n")
	t := &metrics.Table{Header: []string{"VL(lanes)", "IssueBound", "MemBound", "CompBound", "Attainable"}}
	for g := 1; g <= 8; g++ {
		t.Add(fmt.Sprintf("%d", 4*g),
			fmt.Sprintf("%.1f", m.IssueBW(g)*oi.Issue),
			fmt.Sprintf("%.1f", m.MemBW()*oi.Mem),
			fmt.Sprintf("%.1f", m.FPPeak(g)),
			fmt.Sprintf("%.1f", m.Attainable(g, oi)),
		)
	}
	b.WriteString(t.String())
	b.WriteString("\nPaper: 5.3/10.7/16/16/16... — the issue-bandwidth ceiling binds below 12 lanes,\n")
	b.WriteString("so the lane manager assigns WL8.p1 12 lanes rather than the memory-only 8 (Case 4).\n")
	return b.String()
}
