package sim

import (
	"testing"
	"testing/quick"
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

func TestStatsBasics(t *testing.T) {
	s := NewStats()
	if s.Get("missing") != 0 {
		t.Fatal("missing counter should read zero")
	}
	s.Inc("a")
	s.Add("a", 4)
	s.Set("b", 7)
	if s.Get("a") != 5 || s.Get("b") != 7 {
		t.Fatalf("a=%d b=%d", s.Get("a"), s.Get("b"))
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names() = %v", names)
	}
	snap := s.Snapshot()
	s.Inc("a")
	if snap["a"] != 5 {
		t.Fatal("Snapshot must be a copy")
	}
}

func TestTimelineBuckets(t *testing.T) {
	tl := NewTimeline(10)
	for c := uint64(0); c < 25; c++ {
		tl.Record(c, float64(c/10)) // 0 for first bucket, 1 for second, 2 for third
	}
	pts := tl.Points()
	if len(pts) != 3 {
		t.Fatalf("len(points) = %d, want 3", len(pts))
	}
	for i, want := range []float64{0, 1, 2} {
		if pts[i] != want {
			t.Fatalf("bucket %d = %v, want %v", i, pts[i], want)
		}
	}
}

func TestTimelineDefaultsTo1000(t *testing.T) {
	tl := NewTimeline(0)
	if tl.BucketCycles() != 1000 {
		t.Fatalf("default bucket = %d, want 1000", tl.BucketCycles())
	}
}

func TestTimelineSparseBucketsReadZero(t *testing.T) {
	tl := NewTimeline(10)
	tl.Record(35, 8) // only bucket 3 is populated
	pts := tl.Points()
	if len(pts) != 4 {
		t.Fatalf("len = %d, want 4", len(pts))
	}
	if pts[0] != 0 || pts[1] != 0 || pts[2] != 0 || pts[3] != 8 {
		t.Fatalf("points = %v", pts)
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

// TestStatsRestoreDropsUnhandedNames: a counter created by Inc after a
// snapshot is gone after restoring it, while a cell Counter handed out stays
// live (zeroed), so a snapshot re-taken right after the restore equals the
// restored one unless a handle was added.
func TestStatsRestoreDropsUnhandedNames(t *testing.T) {
	s := NewStats()
	s.Inc("early")
	snap := s.Snapshot()
	s.Inc("late")
	cell := s.Counter("handle")
	*cell = 3
	s.Restore(snap)
	if _, ok := s.Snapshot()["late"]; ok {
		t.Fatal("a counter created since the snapshot survived Restore")
	}
	if got := s.Snapshot(); len(got) != 2 || got["early"] != 1 || got["handle"] != 0 {
		t.Fatalf("restored registry %v, want early=1 and a zeroed handle", got)
	}
	*cell++
	if s.Get("handle") != 1 {
		t.Fatal("the handed-out cell stopped backing its counter")
	}
	s.Restore(snap)
	s.Inc("late")
	s.Restore(snap)
	if got := s.Snapshot(); len(got) != 2 || got["early"] != 1 || got["handle"] != 0 {
		t.Fatalf("second restore left %v", got)
	}
}
