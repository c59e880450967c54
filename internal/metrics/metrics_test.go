package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"occamy/internal/arch"
)

func TestGeomeanBasics(t *testing.T) {
	if g := Geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean(1,4) = %v, want 2", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v, want 0", g)
	}
	if g := Geomean([]float64{0, -1}); g != 0 {
		t.Fatalf("geomean of non-positives = %v, want 0", g)
	}
	// Non-positive entries are ignored, not zeroing.
	if g := Geomean([]float64{2, 0, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2,_,8) = %v, want 4", g)
	}
}

func TestGeomeanBetweenMinAndMax(t *testing.T) {
	f := func(raw [5]uint16) bool {
		var xs []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r%1000)/100 + 0.01
			xs = append(xs, v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mkResult(kind arch.Kind, c0, c1 uint64, util float64) *arch.Result {
	return &arch.Result{
		Arch:        kind,
		Cycles:      max(c0, c1),
		Utilization: util,
		Cores: []arch.CoreResult{
			{Cycles: c0, RenameStallFrac: 0.1},
			{Cycles: c1, RenameStallFrac: 0.3},
		},
	}
}

func mkRow(name string, privC1, occC1 uint64) PairRow {
	return PairRow{
		Name: name,
		Results: map[arch.Kind]*arch.Result{
			arch.Private: mkResult(arch.Private, 1000, privC1, 0.5),
			arch.Occamy:  mkResult(arch.Occamy, 1000, occC1, 0.8),
		},
	}
}

func TestPairRowSpeedup(t *testing.T) {
	r := mkRow("p", 2000, 1000)
	if s := r.Speedup(arch.Occamy, 1); s != 2 {
		t.Fatalf("speedup = %v, want 2", s)
	}
	if s := r.Speedup(arch.Occamy, 0); s != 1 {
		t.Fatalf("core0 speedup = %v, want 1", s)
	}
	if s := r.Speedup(arch.FTS, 1); s != 0 {
		t.Fatalf("missing arch speedup = %v, want 0", s)
	}
}

func TestSweepAggregates(t *testing.T) {
	sw := &Sweep{Rows: []PairRow{mkRow("a", 2000, 1000), mkRow("b", 4000, 1000)}}
	gm := sw.GeomeanSpeedup(arch.Occamy, 1)
	if math.Abs(gm-math.Sqrt(8)) > 1e-9 {
		t.Fatalf("GM = %v, want sqrt(8)", gm)
	}
	if u := sw.GeomeanUtilization(arch.Occamy); math.Abs(u-0.8) > 1e-9 {
		t.Fatalf("util GM = %v, want 0.8", u)
	}
	if s := sw.GeomeanRenameStalls(arch.Occamy); math.Abs(s-0.2) > 1e-9 {
		t.Fatalf("stall mean = %v, want 0.2", s)
	}
	if n := sw.TotalCycles(); n != 2000+1000+4000+1000 {
		t.Fatalf("total cycles = %d, want 8000", n)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"A", "Blong"}}
	tab.Add("x", "1")
	tab.Add("yyyy", "2")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "A") || !strings.Contains(lines[0], "Blong") {
		t.Fatalf("header malformed: %q", lines[0])
	}
	if !strings.Contains(lines[1], "-") {
		t.Fatalf("separator missing: %q", lines[1])
	}
}

func TestFormatHelpers(t *testing.T) {
	if FormatPct(0.1234) != "12.3%" {
		t.Fatal(FormatPct(0.1234))
	}
	if FormatX(1.5) != "1.50x" {
		t.Fatal(FormatX(1.5))
	}
	// Nine levels from ' ' to '%'; values below 0 or above max clamp.
	if got := Sparkline([]float64{0, 4, 16, 31.9, 32, 40, -1}, 32); got != " .=#%% " {
		t.Fatalf("Sparkline = %q", got)
	}
}

func TestSortedNames(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedNames(m)
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("SortedNames = %v", got)
	}
}
