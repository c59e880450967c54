package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"occamy/internal/arch"
)

// TestFigure2Quick runs the motivating example at reduced scale and checks
// the published orderings plus the renderer.
func TestFigure2Quick(t *testing.T) {
	f, err := Quick().Figure2()
	if err != nil {
		t.Fatal(err)
	}
	priv := f.Results[arch.Private]
	occ := f.Results[arch.Occamy]
	if occ.Cores[1].Cycles >= priv.Cores[1].Cycles {
		t.Errorf("Occamy WL#1 (%d) must beat Private (%d)", occ.Cores[1].Cycles, priv.Cores[1].Cycles)
	}
	if occ.Utilization <= priv.Utilization {
		t.Errorf("Occamy utilization (%v) must beat Private (%v)", occ.Utilization, priv.Utilization)
	}
	out := f.Render()
	for _, frag := range []string{"Private", "FTS", "VLS", "Occamy", "core0", "SIMD util"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
}

// TestSweepQuickOrderings runs the 25-pair sweep at reduced scale, verifying
// the paper's qualitative orderings and every sweep renderer.
func TestSweepQuickOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is a few seconds")
	}
	sw, err := Quick().Sweep(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Rows) != 25 {
		t.Fatalf("rows = %d", len(sw.Rows))
	}
	// Occamy must be the best Core1 performer on GM.
	occ := sw.GeomeanSpeedup(arch.Occamy, 1)
	if occ <= sw.GeomeanSpeedup(arch.FTS, 1) || occ <= 1.0 {
		t.Errorf("Occamy Core1 GM %.2f must beat FTS and 1.0", occ)
	}
	// Figure 13's pathology: FTS stalls dominate; spatial architectures don't.
	if sw.GeomeanRenameStalls(arch.FTS) < 0.5 {
		t.Errorf("FTS stalls = %v, want > 50%%", sw.GeomeanRenameStalls(arch.FTS))
	}
	if sw.GeomeanRenameStalls(arch.Private) > 0.01 {
		t.Errorf("Private stalls = %v, want ~0", sw.GeomeanRenameStalls(arch.Private))
	}
	// Figure 15: overheads small, reconfiguration below monitoring range.
	m, g := sw.MeanOverhead()
	if m <= 0 || m > 0.1 || g <= 0 || g > 0.02 {
		t.Errorf("overheads monitor=%v reconfig=%v out of expected range", m, g)
	}
	for _, out := range []string{
		RenderFigure10(sw), RenderFigure11(sw), RenderFigure13(sw), RenderFigure15(sw),
	} {
		if !strings.Contains(out, "GM") && !strings.Contains(out, "Mean") {
			t.Error("renderer missing aggregate row")
		}
		if !strings.Contains(out, "spec:WL20+WL17") {
			t.Error("renderer missing a pair row")
		}
	}
}

// TestFigure14Quick checks the case study's knee structure.
func TestFigure14Quick(t *testing.T) {
	f, err := Quick().Figure14()
	if err != nil {
		t.Fatal(err)
	}
	// WL17 keeps scaling: time at 28 lanes well below half the 4-lane time.
	wl17 := f.NormalizedTimes["WL17(wsm52)"]
	if wl17[6] > 0.5*wl17[0] {
		t.Errorf("WL17 must keep scaling with lanes: %v", wl17)
	}
	// The memory phases flatten: 28 lanes no better than 80%% of 16 lanes.
	p1 := f.NormalizedTimes["WL20.p1(sff2)"]
	if p1[6] < 0.8*p1[3] {
		t.Errorf("WL20.p1 should flatten after its knee: %v", p1)
	}
	if !strings.Contains(f.Render(), "Per-phase SIMD issue rates") {
		t.Error("render incomplete")
	}
}

// TestFigure16Quick checks the scalability orderings.
func TestFigure16Quick(t *testing.T) {
	f, err := Quick().Figure16()
	if err != nil {
		t.Fatal(err)
	}
	// Occamy must beat Private on the compute cores of the two-pairs groups.
	for _, g := range []string{"4c:WL21+20+17+17"} {
		if sp := f.Speedup(g, arch.Occamy, 2); sp <= 1.0 {
			t.Errorf("%s core2 speedup = %.2f, want > 1", g, sp)
		}
		if sp := f.Speedup(g, arch.Occamy, 3); sp <= 1.0 {
			t.Errorf("%s core3 speedup = %.2f, want > 1", g, sp)
		}
	}
	if !strings.Contains(f.Render(), "GM") {
		t.Error("render missing GM")
	}
}

func TestTablesRender(t *testing.T) {
	t3 := RenderTable3()
	for _, frag := range []string{"rho_eos2", "wsm51", "dotProd", "spec/WL8", "cv/WL12", "published"} {
		if !strings.Contains(t3, frag) {
			t.Errorf("Table 3 missing %q", frag)
		}
	}
	t4 := RenderTable4()
	for _, frag := range []string{"32 total", "128 KB", "8 MB", "64 GB/s", "160 per rename"} {
		if !strings.Contains(t4, frag) {
			t.Errorf("Table 4 missing %q", frag)
		}
	}
	t5 := Table5()
	if !strings.Contains(t5, "5.3") || !strings.Contains(t5, "16.0") {
		t.Error("Table 5 anchors missing")
	}
}

func TestAblationsQuick(t *testing.T) {
	cfg := Quick()
	s, err := cfg.AblationMonitorPeriod([]int{1, 16})
	if err != nil || !strings.Contains(s, "Period") {
		t.Fatalf("monitor ablation: %v", err)
	}
	if out := AblationIssueCeiling(); !strings.Contains(out, "rho_eos2") {
		t.Error("issue-ceiling ablation must flag the Case 4 kernel")
	}
	s, err = cfg.AblationFTSRegisters([]int{160, 320})
	if err != nil || !strings.Contains(s, "PhysRegs") {
		t.Fatalf("FTS ablation: %v", err)
	}
	s, err = cfg.AblationDefaultVL([]int{1, 2})
	if err != nil || !strings.Contains(s, "DefaultVL") {
		t.Fatalf("defaultVL ablation: %v", err)
	}
}

func TestHTMLReportQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation at reduced scale")
	}
	var buf bytes.Buffer
	if err := Quick().HTMLReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "<svg") < 10 {
		t.Errorf("expected at least 10 charts, found %d", strings.Count(out, "<svg"))
	}
	for _, frag := range []string{"Figure 2", "Figure 10", "Figure 12", "Figure 14", "Figure 16"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
}

// TestSweepFull regenerates the full-scale sweep (the EXPERIMENTS.md data);
// it only runs when FULL=1 is set.
func TestSweepFull(t *testing.T) {
	if os.Getenv("FULL") == "" {
		t.Skip("set FULL=1 for the full-scale sweep")
	}
	sw, err := Default().Sweep(true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + RenderFigure10(sw) + "\n" + RenderFigure11(sw) + "\n" + RenderFigure13(sw) + "\n" + RenderFigure15(sw))
}

// TestDSEQuick exercises every machine-parameter sweep at reduced scale and
// checks the directional expectations: starving DRAM slows every
// architecture, and Occamy stays ahead of Private on the compute core at the
// Table 4 point of each sweep.
func TestDSEQuick(t *testing.T) {
	cfg := Quick()

	bw, err := cfg.DSEDRAMBandwidth([]float64{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bw, "8 B/cy") || !strings.Contains(bw, "32 B/cy") {
		t.Fatalf("bandwidth rows missing:\n%s", bw)
	}

	vc, err := cfg.DSEVecCache([]int{16, 128})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vc, "128 KB") {
		t.Fatalf("cache rows missing:\n%s", vc)
	}

	lat, err := cfg.DSEComputeLatency([]uint64{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lat, "16 cy") {
		t.Fatalf("latency rows missing:\n%s", lat)
	}
}

// TestDSEDirectional pins the physics at quick scale: half the DRAM
// bandwidth must not make the memory-bound pair faster on any architecture,
// and the Core1 elastic speedup must stay above parity everywhere in the
// bandwidth sweep.
func TestDSEDirectional(t *testing.T) {
	cfg := Quick()
	slow, slowSpeedup, err := cfg.dseRow(&arch.MachineTuning{DRAMBytesPerCycle: 8})
	if err != nil {
		t.Fatal(err)
	}
	base, baseSpeedup, err := cfg.dseRow(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range arch.Kinds {
		if slow[kind].Cycles < base[kind].Cycles {
			t.Errorf("%s: quarter-bandwidth DRAM sped the pair up: %d vs %d",
				kind, slow[kind].Cycles, base[kind].Cycles)
		}
	}
	if baseSpeedup <= 1.0 {
		t.Errorf("Occamy not ahead of Private at the Table 4 point: %.2fx", baseSpeedup)
	}
	if slowSpeedup <= 1.0 {
		t.Errorf("Occamy lost its compute-side win under starved DRAM: %.2fx", slowSpeedup)
	}
}

// TestRunPointsBoundAndErrorOrder checks the sweep worker pool: it never runs
// more than Parallel points at once, runs every point even after one fails,
// and returns the first error in point order, not in completion order.
func TestRunPointsBoundAndErrorOrder(t *testing.T) {
	cfg := Quick()
	cfg.Parallel = 3
	var live, peak, ran atomic.Int32
	late := make(chan struct{})
	err := cfg.runPoints("test", 12, func(i int) string { return fmt.Sprint(i) }, func(i int) error {
		n := live.Add(1)
		defer live.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		ran.Add(1)
		time.Sleep(2 * time.Millisecond) // hold the slot so an unbounded pool would overlap
		switch i {
		case 2: // fails last: waits until point 7 has failed
			<-late
			return errors.New("point 2")
		case 7:
			defer close(late)
			return errors.New("point 7")
		}
		return nil
	})
	if err == nil || err.Error() != "point 2" {
		t.Fatalf("runPoints error = %v, want point 2's", err)
	}
	if ran.Load() != 12 {
		t.Fatalf("ran %d points, want 12", ran.Load())
	}
	if peak.Load() > 3 {
		t.Fatalf("%d points ran at once, want at most 3", peak.Load())
	}
}
