// Package metrics provides the aggregate statistics the paper reports:
// geometric means (every average in §7 is a geometric mean), speedups over a
// baseline architecture, and utilization/overhead summaries across a set of
// co-running pairs.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"occamy/internal/arch"
)

// Geomean returns the geometric mean of xs, ignoring non-positive entries
// (which would otherwise poison the product); it returns 0 for an empty or
// all-non-positive input.
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Jain returns Jain's fairness index over xs: (Σx)² / (n·Σx²), which is 1
// when all entries are equal and 1/n when a single entry dominates. It
// returns 0 for an empty or all-zero input.
func Jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 || len(xs) == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// PairRow is one x-axis entry of Figures 10/11/13/15: a co-running pair
// measured on all four architectures.
type PairRow struct {
	Name    string
	Results map[arch.Kind]*arch.Result
}

// Speedup returns the per-core speedup of kind over the Private baseline for
// core c (the metric of Figure 10): baseline cycles / kind cycles.
func (r PairRow) Speedup(kind arch.Kind, c int) float64 {
	base := r.Results[arch.Private]
	got := r.Results[kind]
	if base == nil || got == nil || got.Cores[c].Cycles == 0 {
		return 0
	}
	return float64(base.Cores[c].Cycles) / float64(got.Cores[c].Cycles)
}

// Utilization returns the SIMD utilization of kind for this pair (Figure 11).
func (r PairRow) Utilization(kind arch.Kind) float64 {
	if res := r.Results[kind]; res != nil {
		return res.Utilization
	}
	return 0
}

// RenameStallFrac returns the mean across cores of the fraction of cycles
// blocked waiting for free registers (Figure 13).
func (r PairRow) RenameStallFrac(kind arch.Kind) float64 {
	res := r.Results[kind]
	if res == nil {
		return 0
	}
	total := 0.0
	for _, c := range res.Cores {
		total += c.RenameStallFrac
	}
	return total / float64(len(res.Cores))
}

// OverheadFrac returns Occamy's elastic-sharing runtime overhead for this
// pair as (monitor, reconfigure) fractions of execution time (Figure 15).
func (r PairRow) OverheadFrac() (monitor, reconfig float64) {
	res := r.Results[arch.Occamy]
	if res == nil {
		return 0, 0
	}
	var m, g float64
	for _, c := range res.Cores {
		m += c.OverheadMonitorFrac
		g += c.OverheadReconfigFrac
	}
	n := float64(len(res.Cores))
	return m / n, g / n
}

// Sweep is a full Figure 10-style experiment: every pair on every
// architecture.
type Sweep struct {
	Rows []PairRow
}

// TotalCycles sums the simulated cycles across every run of the sweep.
func (s *Sweep) TotalCycles() uint64 {
	var n uint64
	for _, r := range s.Rows {
		for _, res := range r.Results {
			n += res.Cycles
		}
	}
	return n
}

// GeomeanSpeedup aggregates per-core speedups across pairs (the "GM" bar).
func (s *Sweep) GeomeanSpeedup(kind arch.Kind, core int) float64 {
	var xs []float64
	for _, r := range s.Rows {
		if v := r.Speedup(kind, core); v > 0 {
			xs = append(xs, v)
		}
	}
	return Geomean(xs)
}

// GeomeanUtilization aggregates utilization across pairs (Figure 11's GM).
func (s *Sweep) GeomeanUtilization(kind arch.Kind) float64 {
	var xs []float64
	for _, r := range s.Rows {
		if v := r.Utilization(kind); v > 0 {
			xs = append(xs, v)
		}
	}
	return Geomean(xs)
}

// GeomeanRenameStalls aggregates Figure 13 across pairs.
func (s *Sweep) GeomeanRenameStalls(kind arch.Kind) float64 {
	var xs []float64
	for _, r := range s.Rows {
		xs = append(xs, r.RenameStallFrac(kind))
	}
	// Arithmetic mean here: many entries are exactly zero (by design for
	// the spatial architectures), which a geomean cannot aggregate.
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if len(xs) == 0 {
		return 0
	}
	return sum / float64(len(xs))
}

// MeanOverhead aggregates Figure 15 across pairs.
func (s *Sweep) MeanOverhead() (monitor, reconfig float64) {
	var m, g float64
	for _, r := range s.Rows {
		rm, rg := r.OverheadFrac()
		m += rm
		g += rg
	}
	n := float64(len(s.Rows))
	if n == 0 {
		return 0, 0
	}
	return m / n, g / n
}

// Table renders a fixed-width text table: header row then data rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SortKinds returns the architectures in the paper's presentation order.
func SortKinds() []arch.Kind { return arch.Kinds }

// FormatPct renders a fraction as a percentage.
func FormatPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// FormatX renders a speedup.
func FormatX(f float64) string { return fmt.Sprintf("%.2fx", f) }

// Sparkline renders a timeline as an ASCII strip, one character per point:
// ' ' at 0 through '%' at max and above, in nine levels. It draws the busy-lane
// timelines of Figures 2 and 14 and the CLI's -ascii-timeline view.
func Sparkline(points []float64, max float64) string {
	levels := []rune(" .:-=+*#%")
	var b strings.Builder
	for _, v := range points {
		idx := int(v / max * float64(len(levels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// SortedNames returns map keys in sorted order (stable report output).
func SortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
