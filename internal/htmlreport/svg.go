// Package htmlreport renders the evaluation's figures as a self-contained
// HTML page with inline SVG charts — no external assets, viewable offline.
// cmd/occamy-bench and cmd/occamy-sim use it via their -html flags.
package htmlreport

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named data series for bar and line charts.
type Series struct {
	Name   string
	Values []float64
}

// palette cycles through distinguishable fill colors.
var palette = []string{"#4472c4", "#ed7d31", "#70ad47", "#9e480e", "#7030a0", "#2e75b6"}

func color(i int) string { return palette[i%len(palette)] }

const (
	chartW  = 880
	chartH  = 300
	padL    = 56
	padR    = 16
	padT    = 28
	padB    = 64
	plotW   = chartW - padL - padR
	plotH   = chartH - padT - padB
	fontCSS = `font-family="sans-serif" font-size="11"`
)

// esc escapes text for SVG/HTML.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// niceMax rounds a data maximum up to a tidy axis limit.
func niceMax(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 1.5, 2, 2.5, 3, 4, 5, 7.5, 10} {
		if v <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}

// axis renders the frame, y-axis ticks and a horizontal guide line at ref
// (pass NaN to omit).
func axis(b *strings.Builder, yMax, ref float64, yFmt string) {
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#999"/>`,
		padL, padT, plotW, plotH)
	for i := 0; i <= 4; i++ {
		v := yMax * float64(i) / 4
		y := float64(padT+plotH) - float64(plotH)*float64(i)/4
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eee"/>`,
			padL, y, padL+plotW, y)
		fmt.Fprintf(b, `<text x="%d" y="%.1f" text-anchor="end" %s>`+yFmt+`</text>`,
			padL-6, y+4, fontCSS, v)
	}
	if !math.IsNaN(ref) && ref <= yMax {
		y := float64(padT+plotH) - float64(plotH)*ref/yMax
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#c00" stroke-dasharray="4 3"/>`,
			padL, y, padL+plotW, y)
	}
}

// legend renders the series legend above the plot.
func legend(b *strings.Builder, series []Series) {
	x := padL
	for i, s := range series {
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`, x, 8, color(i))
		fmt.Fprintf(b, `<text x="%d" y="%d" %s>%s</text>`, x+14, 17, fontCSS, esc(s.Name))
		x += 20 + 7*len(s.Name)
	}
}

// BarChart renders a grouped bar chart: one group per label, one bar per
// series. ref draws a dashed reference line (e.g. 1.0 for speedups); pass
// NaN to omit.
func BarChart(title string, labels []string, series []Series, ref float64, yFmt string) string {
	yMax := 0.0
	for _, s := range series {
		for _, v := range s.Values {
			if v > yMax {
				yMax = v
			}
		}
	}
	yMax = niceMax(yMax)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg" role="img" aria-label="%s">`,
		chartW, chartH, esc(title))
	axis(&b, yMax, ref, yFmt)
	legend(&b, series)
	groupW := float64(plotW) / float64(len(labels))
	barW := groupW * 0.8 / float64(len(series))
	for gi, label := range labels {
		gx := float64(padL) + groupW*float64(gi)
		for si, s := range series {
			if gi >= len(s.Values) {
				continue
			}
			v := s.Values[gi]
			h := float64(plotH) * v / yMax
			if h < 0 {
				h = 0
			}
			x := gx + groupW*0.1 + barW*float64(si)
			y := float64(padT+plotH) - h
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s %s: %.3g</title></rect>`,
				x, y, barW, h, color(si), esc(label), esc(s.Name), v)
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="end" transform="rotate(-45 %.1f %d)" %s>%s</text>`,
			gx+groupW/2, padT+plotH+12, gx+groupW/2, padT+plotH+12, fontCSS, esc(label))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// LineChart renders series as polylines over a shared x index (bucket
// number); xScale converts the index to the x-axis unit for the tooltip.
func LineChart(title string, series []Series, xUnit string, xScale float64) string {
	yMax, n := 0.0, 0
	for _, s := range series {
		if len(s.Values) > n {
			n = len(s.Values)
		}
		for _, v := range s.Values {
			if v > yMax {
				yMax = v
			}
		}
	}
	yMax = niceMax(yMax)
	if n < 2 {
		n = 2
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg" role="img" aria-label="%s">`,
		chartW, chartH, esc(title))
	axis(&b, yMax, math.NaN(), "%.0f")
	legend(&b, series)
	for si, s := range series {
		var pts []string
		for i, v := range s.Values {
			x := float64(padL) + float64(plotW)*float64(i)/float64(n-1)
			y := float64(padT+plotH) - float64(plotH)*v/yMax
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`,
			strings.Join(pts, " "), color(si))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle" %s>%s</text>`,
		padL+plotW/2, chartH-8, fontCSS, esc(xUnit))
	_ = xScale
	b.WriteString(`</svg>`)
	return b.String()
}

// Step is one step of a staircase series.
type Step struct {
	X float64
	Y float64
}

// StepChart renders staircase series (the Figure 2(e)/14(b) allocated-lane
// plots): each series holds steps at which its value changes; xEnd extends
// the final step.
func StepChart(title string, names []string, steps [][]Step, xEnd, yMax float64, xUnit string) string {
	yMax = niceMax(yMax)
	if xEnd <= 0 {
		xEnd = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg" role="img" aria-label="%s">`,
		chartW, chartH, esc(title))
	axis(&b, yMax, math.NaN(), "%.0f")
	series := make([]Series, len(names))
	for i, n := range names {
		series[i] = Series{Name: n}
	}
	legend(&b, series)
	toX := func(v float64) float64 { return float64(padL) + float64(plotW)*v/xEnd }
	toY := func(v float64) float64 { return float64(padT+plotH) - float64(plotH)*v/yMax }
	for si, ss := range steps {
		if len(ss) == 0 {
			continue
		}
		var pts []string
		for i, st := range ss {
			if i > 0 {
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", toX(st.X), toY(ss[i-1].Y)))
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", toX(st.X), toY(st.Y)))
		}
		last := ss[len(ss)-1]
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", toX(xEnd), toY(last.Y)))
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`,
			strings.Join(pts, " "), color(si))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle" %s>%s</text>`,
		padL+plotW/2, chartH-8, fontCSS, esc(xUnit))
	b.WriteString(`</svg>`)
	return b.String()
}

// StackedBarChart renders one stacked bar per label (the Figure 12 area
// breakdown): components share the order of parts.
func StackedBarChart(title string, labels []string, parts []string, values [][]float64, yFmt string) string {
	yMax := 0.0
	for _, col := range values {
		sum := 0.0
		for _, v := range col {
			sum += v
		}
		if sum > yMax {
			yMax = sum
		}
	}
	yMax = niceMax(yMax)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg" role="img" aria-label="%s">`,
		chartW, chartH, esc(title))
	axis(&b, yMax, math.NaN(), yFmt)
	series := make([]Series, len(parts))
	for i, p := range parts {
		series[i] = Series{Name: p}
	}
	legend(&b, series)
	groupW := float64(plotW) / float64(len(labels))
	for gi, label := range labels {
		x := float64(padL) + groupW*float64(gi) + groupW*0.25
		y := float64(padT + plotH)
		for pi := range parts {
			v := values[gi][pi]
			h := float64(plotH) * v / yMax
			y -= h
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s %s: %.3g</title></rect>`,
				x, y, groupW*0.5, h, color(pi), esc(label), esc(parts[pi]), v)
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle" %s>%s</text>`,
			x+groupW*0.25, padT+plotH+14, fontCSS, esc(label))
	}
	b.WriteString(`</svg>`)
	return b.String()
}
