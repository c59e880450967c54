package sim

import (
	"fmt"
	"testing"
	"testing/quick"

	"occamy/internal/digest"
)

type countingComponent struct {
	name  string
	ticks []uint64
}

func (c *countingComponent) Name() string      { return c.name }
func (c *countingComponent) Tick(cycle uint64) { c.ticks = append(c.ticks, cycle) }

func TestEngineTickOrderIsRegistrationOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	mk := func(name string) Component {
		return componentFunc{name: name, fn: func(uint64) { order = append(order, name) }}
	}
	e.Register(mk("a"))
	e.Register(mk("b"))
	e.Register(mk("c"))
	e.Step()
	e.Step()
	want := []string{"a", "b", "c", "a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tick %d = %q, want %q", i, order[i], want[i])
		}
	}
}

type componentFunc struct {
	name string
	fn   func(uint64)
}

func (c componentFunc) Name() string      { return c.name }
func (c componentFunc) Tick(cycle uint64) { c.fn(cycle) }

func TestEngineCyclesAreSequential(t *testing.T) {
	e := NewEngine()
	c := &countingComponent{name: "seq"}
	e.Register(c)
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if e.Cycle() != 10 {
		t.Fatalf("Cycle() = %d, want 10", e.Cycle())
	}
	for i, got := range c.ticks {
		if got != uint64(i) {
			t.Fatalf("tick %d saw cycle %d", i, got)
		}
	}
}

func TestRunUntilStopsAtPredicate(t *testing.T) {
	e := NewEngine()
	n, err := e.RunUntil(func() bool { return e.Cycle() >= 42 }, 1000)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if n != 42 || e.Cycle() != 42 {
		t.Fatalf("ran %d cycles to %d, want 42", n, e.Cycle())
	}
}

func TestRunUntilBudgetExhaustion(t *testing.T) {
	e := NewEngine()
	_, err := e.RunUntil(func() bool { return false }, 100)
	if err == nil {
		t.Fatal("want error on exhausted budget")
	}
	if e.Cycle() != 100 {
		t.Fatalf("Cycle() = %d, want 100", e.Cycle())
	}
}

// TestStatsBasics: cells are stable across chunk growth, Get reads them,
// and Snapshot lists every counter but the quiet ones still at zero.
func TestStatsBasics(t *testing.T) {
	s := NewStats()
	if s.Get("missing") != 0 {
		t.Fatal("missing counter should read zero")
	}
	a := s.Counter("a")
	quiet := s.QuietCounter("q")
	for i := 0; i < 3*statsChunk; i++ {
		s.Counter(fmt.Sprintf("filler%d", i))
	}
	*a += 5
	if s.Counter("a") != a || s.Get("a") != 5 || s.Len() != 2+3*statsChunk {
		t.Fatalf("a=%d (cell moved: %v), %d counters", s.Get("a"), s.Counter("a") != a, s.Len())
	}
	snap := s.Snapshot()
	if _, ok := snap["q"]; ok || snap["a"] != 5 || len(snap) != s.Len()-1 {
		t.Fatalf("Snapshot lists %d counters (q listed: %v), a=%d", len(snap), ok, snap["a"])
	}
	*quiet = 2
	*a++
	if snap["a"] != 5 {
		t.Fatal("Snapshot must be a copy")
	}
	if got := s.Snapshot(); got["q"] != 2 || s.QuietCounter("q") != quiet {
		t.Fatalf("a non-zero quiet counter reads %d in Snapshot", got["q"])
	}
}

func TestTimelineBuckets(t *testing.T) {
	var tl Timeline
	for c := uint64(0); c < 2500; c++ {
		tl.Record(c, float64(c/1000)) // 0 for first bucket, 1 for second, 2 for third
	}
	pts := tl.Points(2500)
	if len(pts) != 3 {
		t.Fatalf("len(points) = %d, want 3", len(pts))
	}
	for i, want := range []float64{0, 1, 2} {
		if pts[i] != want {
			t.Fatalf("bucket %d = %v, want %v", i, pts[i], want)
		}
	}
}

// TestTimelineDefaultsTo1000: buckets are 1000 cycles wide, and a bucket's
// average divides by its elapsed cycles, recorded or not.
func TestTimelineDefaultsTo1000(t *testing.T) {
	var tl Timeline
	tl.Record(999, 4)
	tl.Record(1000, 6)
	if pts := tl.Points(2000); len(pts) != 2 || pts[0] != 0.004 || pts[1] != 0.006 {
		t.Fatalf("points = %v, want [0.004 0.006]", pts)
	}
}

func TestTimelineSparseBucketsReadZero(t *testing.T) {
	var tl Timeline
	tl.Record(3000, 8) // only bucket 3 is populated, and it has run one cycle
	pts := tl.Points(3001)
	if len(pts) != 4 {
		t.Fatalf("len = %d, want 4", len(pts))
	}
	if pts[0] != 0 || pts[1] != 0 || pts[2] != 0 || pts[3] != 8 {
		t.Fatalf("points = %v", pts)
	}
}

// TestTimelineGrowClearsStaleBuckets: a restore copies a timeline into
// storage that can hold older sums past its length, so growing within the
// capacity must not expose them.
func TestTimelineGrowClearsStaleBuckets(t *testing.T) {
	stale := []float64{1, 2, 3, 4}
	tl := Timeline{sums: stale[:1]}
	tl.Record(2000, 5)
	if pts := tl.Points(3000); pts[0] != 0.001 || pts[1] != 0 || pts[2] != 0.005 {
		t.Fatalf("points = %v, want [0.001 0 0.005]", pts)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(1234), NewRNG(1234)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestRNGZeroSeedIsUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must not collapse to zero stream")
	}
}

func TestRNGFloat32Range(t *testing.T) {
	r := NewRNG(99)
	f := func(_ uint8) bool {
		v := r.Float32()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStatsRestoreDropsUnhandedNames: restoring a StatsState taken earlier
// (the codec copies it onto the live registry) writes the values into the
// cells already handed out. A counter bumped since the snapshot reads zero
// and keeps backing its name, and a quiet one drops out of Snapshot again,
// so a report taken right after the restore equals the one taken with the
// snapshot.
func TestStatsRestoreDropsUnhandedNames(t *testing.T) {
	s := NewStats()
	early := s.Counter("early")
	late := s.QuietCounter("late")
	cell := s.Counter("handle")
	*early = 1
	snap := digest.Clone(&s.StatsState)
	report := s.Snapshot()
	*late = 4
	*cell = 3
	digest.Copy(&s.StatsState, &snap)
	if _, ok := s.Snapshot()["late"]; ok {
		t.Fatal("a quiet counter bumped since the snapshot is still listed after the restore")
	}
	if got := s.Snapshot(); len(got) != len(report) || got["early"] != 1 || got["handle"] != 0 {
		t.Fatalf("restored registry %v, want %v", got, report)
	}
	*cell++
	if s.Get("handle") != 1 || s.Counter("handle") != cell {
		t.Fatal("the handed-out cell stopped backing its counter")
	}
	digest.Copy(&s.StatsState, &snap)
	*late++
	digest.Copy(&s.StatsState, &snap)
	if got := s.Snapshot(); len(got) != len(report) || got["early"] != 1 || got["handle"] != 0 || *late != 0 {
		t.Fatalf("second restore left %v (late=%d)", got, *late)
	}
}
