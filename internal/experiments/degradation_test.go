package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"occamy/internal/arch"
	"occamy/internal/fault"
)

var degOnce struct {
	sync.Once
	d   *Degradation
	err error
}

// degSweep runs the degradation sweep once and shares it across the tests.
func degSweep(t *testing.T) *Degradation {
	t.Helper()
	degOnce.Do(func() { degOnce.d, degOnce.err = Quick().Degradation() })
	if degOnce.err != nil {
		t.Fatal(degOnce.err)
	}
	return degOnce.d
}

// TestDegradationOccamyRetainsMost is the headline robustness claim: for
// every failure count 1..N-1, Occamy retains strictly more throughput than
// the three static designs — and the whole sweep is deterministic under a
// fixed seed.
func TestDegradationOccamyRetainsMost(t *testing.T) {
	d := degSweep(t)
	if d.Units < 2 {
		t.Fatalf("degenerate sweep: %d units", d.Units)
	}
	for f := 1; f < d.Units; f++ {
		occ := d.Points[arch.Occamy][f]
		if !occ.Completed {
			t.Errorf("f=%d: Occamy did not complete: %s", f, occ.Reason)
			continue
		}
		for _, kind := range []arch.Kind{arch.Private, arch.FTS, arch.VLS} {
			if other := d.Points[kind][f]; occ.Retention <= other.Retention {
				t.Errorf("f=%d: Occamy retention %.3f not strictly above %s %.3f",
					f, occ.Retention, kind, other.Retention)
			}
		}
		if occ.HasTTR && !occ.TTRPending && occ.TTR == 0 {
			t.Errorf("f=%d: Occamy recovery has zero time-to-repartition", f)
		}
	}

	d2, err := Quick().Degradation()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprintf("%+v", d.Points), fmt.Sprintf("%+v", d2.Points); a != b {
		t.Errorf("degradation sweep not deterministic under fixed seed:\n%s\n%s", a, b)
	}
}

// TestDegradationSnapshotPathIdentical is the sweep-level differential test
// for warm-up sharing: every point of the snapshot-forked sweep must agree
// with an independent run of the same point from cycle zero on every
// architecture — cycles, elements, retention, recovery times, DNF verdicts
// and reasons — because forking from the shared-prefix checkpoint is an
// execution strategy, not a model change.
func TestDegradationSnapshotPathIdentical(t *testing.T) {
	forked := degSweep(t)
	cfg := Quick()
	straight := &Degradation{Units: forked.Units, FaultAt: forked.FaultAt, Points: make(map[arch.Kind][]DegPoint, len(arch.Kinds))}
	for _, kind := range arch.Kinds {
		straight.Points[kind] = make([]DegPoint, forked.Units)
	}
	point := func(i int) (arch.Kind, int) { return arch.Kinds[i/forked.Units], i % forked.Units }
	label := func(i int) string {
		kind, f := point(i)
		return fmt.Sprintf("%s/f%d", kind, f)
	}
	err := cfg.runPoints("degradation-straight", len(arch.Kinds)*forked.Units, label, func(i int) error {
		kind, f := point(i)
		p, err := degradationStraight(cfg, kind, f)
		straight.Points[kind][f] = p
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := straight.normalize(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range arch.Kinds {
		a := fmt.Sprintf("%+v", forked.Points[kind])
		b := fmt.Sprintf("%+v", straight.Points[kind])
		if a != b {
			t.Errorf("%s: snapshot-forked sweep diverges from independent runs\nforked:   %s\nstraight: %s", kind, a, b)
		}
	}
}

// degradationStraight runs one degradation point independently from cycle
// zero, with the fault schedule installed at build time.
func degradationStraight(c Config, kind arch.Kind, f int) (DegPoint, error) {
	opts := arch.Options{Seed: c.Seed, LegacyTick: c.LegacyTick, StallCycles: degStall, WireInjector: true}
	if f > 0 {
		opts.Faults = []fault.Fault{{Kind: fault.ExeBU, Count: f, At: degFaultAt}}
	}
	sys, err := arch.Build(kind, degradationGroup(), opts)
	if err != nil {
		return DegPoint{}, err
	}
	res, rerr := sys.Run(c.MaxCycles)
	return degPointFrom(f, res, rerr), nil
}

// TestDegradationRender smoke-checks the report.
func TestDegradationRender(t *testing.T) {
	out := degSweep(t).Render()
	for _, want := range []string{"Degradation", "Occamy", "Time to repartition"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
