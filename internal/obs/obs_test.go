package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestClassifyPriority(t *testing.T) {
	cases := []struct {
		name string
		sig  Sig
		want Bucket
	}{
		{"empty is idle", 0, BucketIdle},
		{"scalar alone", SigScalar, BucketScalarIssue},
		{"vec beats scalar", SigScalar | SigVecIssue, BucketVecIssue},
		{"drain beats everything", SigDrain | SigVecIssue | SigRenameStall | SigScalar, BucketDrainReconfig},
		{"vec beats rename", SigVecIssue | SigRenameStall, BucketVecIssue},
		{"rename beats membw", SigRenameStall | SigMemBW, BucketRenameStall},
		{"membw beats lsu", SigMemBW | SigLSUWait, BucketMemBW},
		{"lsu beats exebu", SigLSUWait | SigExeBUWait, BucketLSUWait},
		{"exebu beats dispatch", SigExeBUWait | SigDispatchFull, BucketExeBUWait},
		{"dispatch beats monitor", SigDispatchFull | SigMonitor, BucketDispatchFull},
		{"monitor beats scalar", SigMonitor | SigScalar, BucketMonitor},
	}
	for _, c := range cases {
		if got := Classify(c.sig); got != c.want {
			t.Errorf("%s: Classify(%b) = %v, want %v", c.name, c.sig, got, c.want)
		}
	}
}

func TestBucketNames(t *testing.T) {
	names := BucketNames()
	if len(names) != NumBuckets {
		t.Fatalf("got %d names, want %d", len(names), NumBuckets)
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("bucket %d has empty or duplicate name %q", i, n)
		}
		seen[n] = true
		if Bucket(i).String() != n {
			t.Errorf("Bucket(%d).String() = %q, want %q", i, Bucket(i).String(), n)
		}
	}
	for _, want := range []string{"scalar-issue", "vec-issue", "rename-stall", "dispatch-full",
		"exebu-busy-wait", "lsu-wait", "mem-bandwidth", "drain-reconfig",
		"lane-monitor-overhead", "idle"} {
		if !seen[want] {
			t.Errorf("taxonomy missing bucket %q", want)
		}
	}
}

func TestNilProbeIsSafe(t *testing.T) {
	var p *Probe
	p.Signal(0, SigScalar)
	p.Tick(1)
	p.Hist("x").Observe(5)
	if p.Sink() != nil || p.Cores() != 0 || p.Histograms() != nil {
		t.Fatal("nil probe should report empty state")
	}
	a := p.CoreAttribution(0)
	if a.Sum() != 0 || a.Total != 0 {
		t.Fatal("nil probe attribution should be zero")
	}
}

func TestProbeChargesAndConserves(t *testing.T) {
	p := NewProbe(2, nil)
	p.Tick(0) // reset cycle: not charged
	for now := uint64(1); now <= 10; now++ {
		p.Signal(0, SigScalar)
		if now <= 4 {
			p.Signal(0, SigVecIssue)
		}
		// core 1 stays idle throughout
		p.Tick(now)
	}
	a0 := p.CoreAttribution(0)
	if a0.Total != 10 {
		t.Fatalf("core 0 charged %d cycles, want 10", a0.Total)
	}
	if got := a0.Get(BucketVecIssue); got != 4 {
		t.Errorf("vec-issue = %d, want 4", got)
	}
	if got := a0.Get(BucketScalarIssue); got != 6 {
		t.Errorf("scalar-issue = %d, want 6", got)
	}
	if err := a0.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	a1 := p.CoreAttribution(1)
	if a1.Get(BucketIdle) != 10 {
		t.Fatalf("idle core charged %v", a1.Buckets)
	}
	if a1.Frac(BucketIdle) != 1.0 {
		t.Errorf("idle frac = %v, want 1", a1.Frac(BucketIdle))
	}
}

func TestTrimTrailingIdle(t *testing.T) {
	a := CoreAttribution{Total: 100}
	a.Buckets[BucketVecIssue] = 60
	a.Buckets[BucketIdle] = 40
	if err := a.TrimTrailingIdle(70); err != nil {
		t.Fatal(err)
	}
	if a.Total != 70 || a.Buckets[BucketIdle] != 10 {
		t.Fatalf("after trim: total=%d idle=%d, want 70/10", a.Total, a.Buckets[BucketIdle])
	}
	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// Trimming more than the idle bucket holds must fail loudly.
	b := CoreAttribution{Total: 100}
	b.Buckets[BucketVecIssue] = 90
	b.Buckets[BucketIdle] = 10
	if err := b.TrimTrailingIdle(50); err == nil {
		t.Fatal("expected error trimming non-idle tail")
	}
	if b.Total != 100 {
		t.Fatal("failed trim must leave attribution untouched")
	}
	// Target above the charged total is a caller bug.
	if err := b.TrimTrailingIdle(200); err == nil {
		t.Fatal("expected error for target > total")
	}
}

func TestConservationDetectsCorruption(t *testing.T) {
	a := CoreAttribution{Total: 5}
	a.Buckets[BucketScalarIssue] = 4
	if err := a.CheckConservation(); err == nil {
		t.Fatal("expected conservation violation")
	}
}

func TestHistogram(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(3) // must not panic
	if nilH.Count() != 0 || nilH.Name() != "" || nilH.String() != "" {
		t.Fatal("nil histogram should be empty")
	}

	h := &Histogram{name: "dram.latency"}
	for _, v := range []uint64{0, 1, 2, 3, 200} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Min() != 0 || h.Max() != 200 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	if want := 206.0 / 5; h.Mean() != want {
		t.Fatalf("mean = %v, want %v", h.Mean(), want)
	}
	s := h.String()
	if !strings.Contains(s, "dram.latency") || !strings.Contains(s, "n=5") {
		t.Fatalf("unexpected render:\n%s", s)
	}
	// Bin bounds: value 3 has bit length 2 -> bin [2,3].
	if lo, hi := binBounds(2); lo != 2 || hi != 3 {
		t.Fatalf("binBounds(2) = [%d,%d], want [2,3]", lo, hi)
	}
	if lo, hi := binBounds(0); lo != 0 || hi != 0 {
		t.Fatalf("binBounds(0) = [%d,%d], want [0,0]", lo, hi)
	}
}

func TestProbeHistRegistry(t *testing.T) {
	p := NewProbe(1, nil)
	h1 := p.Hist("b.second")
	h2 := p.Hist("a.first")
	if p.Hist("b.second") != h1 {
		t.Fatal("Hist must return the same histogram for the same name")
	}
	quiet := p.QuietHist("0.quiet")
	h3 := p.Hist("c.third")
	hs := p.Histograms()
	if len(hs) != 3 || hs[0] != h1 || hs[1] != h2 || hs[2] != h3 || p.Len() != 4 {
		t.Fatal("Histograms must list the registered histograms in creation order, an empty quiet one not at all")
	}
	quiet.Observe(1)
	if hs := p.Histograms(); len(hs) != 4 || hs[3] != quiet {
		t.Fatal("Histograms must list a quiet histogram with an observation after the others")
	}
}

func TestPerfettoRoundTrip(t *testing.T) {
	s := NewPerfetto(0)
	s.EmitProcessName(0, "core0 [fft]")
	s.EmitThreadName(0, TidPhases, "phases")
	// Emit out of ts order on purpose: Write must sort.
	s.EmitComplete(0, TidPhases, "vecA", 50, 25, map[string]any{"vl": 64})
	s.EmitInstant(0, TidEMSIMD, "drain-start", 10, nil)
	s.EmitCounter(0, "busy_lanes", "lanes", 20, 12)
	s.EmitComplete(0, TidPhases, "scalar", 0, 10, nil)

	var buf bytes.Buffer
	n, err := s.Write(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != s.Len() || n != 6 {
		t.Fatalf("wrote %d events, buffered %d, want 6", n, s.Len())
	}
	if err := ValidatePerfetto(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("round-trip validation failed: %v\n%s", err, buf.String())
	}
}

func TestPerfettoNilAndCap(t *testing.T) {
	var s *Perfetto
	s.EmitComplete(0, 0, "x", 0, 1, nil)
	s.EmitInstant(0, 0, "x", 0, nil)
	s.EmitCounter(0, "x", "v", 0, 1)
	if s.Len() != 0 || s.Dropped() != 0 {
		t.Fatal("nil sink should be inert")
	}
	var buf bytes.Buffer
	if _, err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil sink wrote %q", buf.String())
	}

	capped := NewPerfetto(2)
	for i := 0; i < 5; i++ {
		capped.EmitInstant(0, 0, "e", uint64(i), nil)
	}
	if capped.Len() != 2 || capped.Dropped() != 3 {
		t.Fatalf("cap: len=%d dropped=%d, want 2/3", capped.Len(), capped.Dropped())
	}
}

func TestValidatePerfettoRejectsBadTraces(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"not json", `{`},
		{"empty", `[]`},
		{"missing ph", `[{"name":"a","pid":0,"tid":0,"ts":1}]`},
		{"missing name", `[{"ph":"i","pid":0,"tid":0,"ts":1}]`},
		{"missing pid", `[{"ph":"i","name":"a","tid":0,"ts":1}]`},
		{"missing tid", `[{"ph":"X","name":"a","pid":0,"ts":1,"dur":1}]`},
		{"missing ts", `[{"ph":"i","name":"a","pid":0,"tid":0}]`},
		{"missing dur", `[{"ph":"X","name":"a","pid":0,"tid":0,"ts":1}]`},
		{"backwards ts", `[{"ph":"i","name":"a","pid":0,"tid":0,"ts":5},{"ph":"i","name":"b","pid":0,"tid":0,"ts":4}]`},
	}
	for _, c := range cases {
		if err := ValidatePerfetto(strings.NewReader(c.json)); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	good := `[{"ph":"M","name":"process_name","pid":0,"args":{"name":"core0"}},` +
		`{"ph":"i","name":"a","pid":0,"tid":0,"ts":1},` +
		`{"ph":"C","name":"busy","pid":0,"ts":2,"args":{"lanes":4}}]`
	if err := ValidatePerfetto(strings.NewReader(good)); err != nil {
		t.Errorf("good trace rejected: %v", err)
	}
}

func TestProbeSkipTicksConserves(t *testing.T) {
	p := NewProbe(2, nil)
	// A real warm-up cycle, then a skip with a settled stall mask: the
	// bulk charge must land every elided cycle in exactly one bucket.
	p.Signal(0, SigScalar)
	p.Signal(1, SigScalar|SigLSUWait)
	p.Tick(1)
	p.Signal(0, SigScalar|SigDispatchFull)
	p.Signal(1, SigScalar|SigLSUWait)
	p.SkipTicks(2, 40)
	a0, a1 := p.CoreAttribution(0), p.CoreAttribution(1)
	if err := a0.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := a1.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if a0.Total != 41 || a1.Total != 41 {
		t.Fatalf("totals = %d/%d, want 41 (1 ticked + 40 skipped)", a0.Total, a1.Total)
	}
	if got := a0.Get(BucketDispatchFull); got != 40 {
		t.Fatalf("core0 dispatch-full = %d, want 40", got)
	}
	if got := a1.Get(BucketLSUWait); got != 41 {
		t.Fatalf("core1 lsu-wait = %d, want 41", got)
	}
	// The mask must be consumed, like Tick does.
	p.Tick(42)
	if got := p.CoreAttribution(0).Get(BucketIdle); got != 1 {
		t.Fatalf("post-skip tick charged %d idle cycles, want 1", got)
	}
}

func TestProbeSkipTicksNeverChargesCycleZero(t *testing.T) {
	p := NewProbe(1, nil)
	p.Signal(0, SigScalar)
	p.SkipTicks(0, 10) // covers the reset cycle: only 9 chargeable
	a := p.CoreAttribution(0)
	if a.Total != 9 || a.Get(BucketScalarIssue) != 9 {
		t.Fatalf("attribution = %+v, want 9 scalar-issue cycles", a)
	}
	var nilProbe *Probe
	nilProbe.SkipTicks(0, 10) // nil-receiver safety, like every obs method
	if w, ok := nilProbe.NextWake(5); ok != true || w == 0 {
		t.Fatalf("nil probe NextWake = %d,%v", w, ok)
	}
}
