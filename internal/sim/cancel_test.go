package sim

import (
	"errors"
	"testing"
)

// tickerStub is a plain Component (no Sleeper), so the engine ticks every
// cycle — the worst case for cancellation-poll overhead and the configuration
// the bit-identity assertion cares about.
type tickerStub struct{ ticks uint64 }

func (s *tickerStub) Name() string     { return "ticker" }
func (s *tickerStub) Tick(c uint64)    { s.ticks++ }
func (s *tickerStub) Progress() uint64 { return s.ticks }

func TestRunUntilInterruptCancels(t *testing.T) {
	e := NewEngine()
	e.Register(&tickerStub{})
	done := make(chan struct{})
	close(done)
	e.SetInterrupt(done)
	n, err := e.RunUntil(func() bool { return false }, 1_000_000)
	var cerr *CanceledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if cerr.Cycle != e.Cycle() {
		t.Fatalf("CanceledError.Cycle = %d, engine at %d", cerr.Cycle, e.Cycle())
	}
	// An already-closed channel is seen at the first poll point, well before
	// the budget.
	if n >= 1_000_000 {
		t.Fatalf("ran %d cycles, cancellation never observed", n)
	}
	if n > 2*(interruptPollMask+1) {
		t.Fatalf("ran %d cycles before noticing a pre-closed interrupt (poll spacing %d)", n, interruptPollMask+1)
	}
}

func TestRunUntilInterruptBitIdentical(t *testing.T) {
	// An armed interrupt that never fires must not change anything: same
	// cycle count, same tick count as a run without one.
	run := func(arm bool) (uint64, uint64) {
		e := NewEngine()
		s := &tickerStub{}
		e.Register(s)
		if arm {
			e.SetInterrupt(make(chan struct{}))
		}
		n, err := e.RunUntil(func() bool { return e.Cycle() >= 10_000 }, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		return n, s.ticks
	}
	nPlain, tPlain := run(false)
	nArmed, tArmed := run(true)
	if nPlain != nArmed || tPlain != tArmed {
		t.Fatalf("armed-but-silent interrupt changed the run: cycles %d vs %d, ticks %d vs %d",
			nPlain, nArmed, tPlain, tArmed)
	}
}
