package arch

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"occamy/internal/fault"
	"occamy/internal/isa"
	"occamy/internal/obs"
	"occamy/internal/sim"
	"occamy/internal/workload"
)

// ckGroup is a two-core group sized so a full run takes a few thousand
// cycles: long enough that a mid-run checkpoint leaves real work on both
// sides, short enough to sweep all four architectures in the differential
// tests below.
func ckGroup() workload.CoSchedule {
	r := workload.NewRegistry()
	dot := *r.Kernel("dotProd")
	dot.Elems, dot.Repeats = 2000, 2
	tri := *r.Kernel("wsm51")
	tri.Elems, tri.Repeats = 512, 2
	return workload.CoSchedule{Name: "ck", W: []*workload.Workload{
		{Name: "ck.dot", Phases: []*workload.Kernel{&dot}},
		{Name: "ck.tri", Phases: []*workload.Kernel{&tri}},
	}}
}

// fingerprint renders everything a run can observably produce: the full
// Result (cycles, per-core measurements, attribution, recoveries), the
// complete counter registry, and the lane-event log. Two runs with equal
// fingerprints are bit-identical for every consumer in this repository.
// Attribution is a pointer field, so it is dereferenced into the fingerprint
// separately (fmt would otherwise print its address).
func fingerprint(sys *System, res *Result) string {
	flat := *res
	flat.Cores = append([]CoreResult(nil), res.Cores...)
	attrs := make([]string, 0, len(flat.Cores))
	for i := range flat.Cores {
		if a := flat.Cores[i].Attribution; a != nil {
			attrs = append(attrs, fmt.Sprintf("%+v", *a))
		}
		flat.Cores[i].Attribution = nil
	}
	return fmt.Sprintf("res=%+v\nattr=%v\nstats=%v\nevents=%+v",
		&flat, attrs, sys.Stats.Snapshot(), sys.Clusters[0].LaneEvents())
}

// mustRun runs to completion, failing the test on any engine error.
func mustRun(t *testing.T, sys *System) *Result {
	t.Helper()
	res, err := sys.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckpointForkBitIdentical is the core checkpoint/restore contract:
// for every architecture and several fault schedules, warming a system up
// with an empty schedule, checkpointing, swapping the schedule in and
// resuming must be bit-identical to a straight run built with that schedule
// from cycle zero — and the same checkpoint must be reusable for every
// schedule (the shared-warm-up sweep pattern).
func TestCheckpointForkBitIdentical(t *testing.T) {
	const warm = 500 // checkpoint cycle, before every schedule's first fault
	schedules := [][]fault.Fault{
		nil, // the fault-free point forks from the same checkpoint
		{{Kind: fault.ExeBU, Count: 2, At: 700}},
		{{Kind: fault.ExeBU, Count: 1, At: 650, For: 1500},
			{Kind: fault.Bandwidth, Level: "dram", Factor: 0.5, Count: 1, At: 900, For: 1200}},
		{{Kind: fault.RegBank, Core: 0, Count: 64, At: 600, For: 2000},
			{Kind: fault.XmitLink, Core: 1, At: 800, For: 1000}},
	}
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			pair := ckGroup()
			forked, err := Build(kind, pair, Options{Seed: 11, WireInjector: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := forked.RunTo(warm); err != nil {
				t.Fatal(err)
			}
			snap := forked.Checkpoint()
			if snap.Cycle() != warm {
				t.Fatalf("checkpoint at cycle %d, want %d", snap.Cycle(), warm)
			}
			for i, faults := range schedules {
				straight, err := Build(kind, pair, Options{Seed: 11, WireInjector: true, Faults: faults})
				if err != nil {
					t.Fatal(err)
				}
				want := fingerprint(straight, mustRun(t, straight))

				if err := forked.RestoreCheckpoint(snap); err != nil {
					t.Fatal(err)
				}
				if got := forked.Engine.Cycle(); got != warm {
					t.Fatalf("schedule %d: restore left clock at %d, want %d", i, got, warm)
				}
				forked.SetFaultSchedule(faults)
				got := fingerprint(forked, mustRun(t, forked))
				if got != want {
					t.Errorf("schedule %d: forked run diverges from straight run\nstraight:\n%s\nforked:\n%s", i, want, got)
				}
			}
		})
	}
}

// TestCheckpointMidFaultWindow restores into the middle of live transient
// fault windows: the checkpoint is taken while a bandwidth derate, a link
// fault, a register cut and a transient ExeBU failure are all in effect, so
// the snapshot must carry the applied effects AND the injector's pending
// reverts. Re-running from the checkpoint twice must match a straight run.
func TestCheckpointMidFaultWindow(t *testing.T) {
	faults := []fault.Fault{
		{Kind: fault.ExeBU, Count: 2, At: 350, For: 3000},
		{Kind: fault.Bandwidth, Level: "dram", Factor: 0.6, Count: 1, At: 300, For: 2000},
		{Kind: fault.RegBank, Core: 0, Count: 64, At: 320, For: 2500},
		{Kind: fault.XmitLink, Core: 1, At: 400, For: 1500},
	}
	const mid = 1000 // inside every window above
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			pair := ckGroup()
			straight, err := Build(kind, pair, Options{Seed: 7, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(straight, mustRun(t, straight))

			forked, err := Build(kind, pair, Options{Seed: 7, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			if err := forked.RunTo(mid); err != nil {
				t.Fatal(err)
			}
			snap := forked.Checkpoint()
			for rerun := 0; rerun < 2; rerun++ {
				if err := forked.RestoreCheckpoint(snap); err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(forked, mustRun(t, forked)); got != want {
					t.Errorf("rerun %d: mid-window fork diverges\nstraight:\n%s\nforked:\n%s", rerun, want, got)
				}
			}
		})
	}
}

// TestCheckpointMidSkipWindow composes snapshots with the skip-ahead engine:
// on a fault-free, skip-enabled run, RunTo lands the clock inside quiescent
// windows the straight run jumps over in one piece (the jump is clamped at
// the target), so the checkpoint splits a skip. The resumed run — and a
// restore + rerun — must still be bit-identical to the unsplit straight run,
// including the engine's total skipped-cycle accounting.
func TestCheckpointMidSkipWindow(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			pair := ckGroup()
			opts := Options{Seed: 13, Obs: obs.Options{Attribution: true}}
			straight, err := Build(kind, pair, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !straight.Engine.SkipAhead() {
				t.Fatal("skip-ahead unexpectedly disabled")
			}
			want := fingerprint(straight, mustRun(t, straight))

			forked, err := Build(kind, pair, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Several RunTo stops raise the odds of landing mid-window at
			// least once per architecture; all are well inside the shortest
			// architecture's makespan (FTS completes around cycle 1170).
			for _, stop := range []uint64{137, 611, 1050} {
				if err := forked.RunTo(stop); err != nil {
					t.Fatal(err)
				}
				if got := forked.Engine.Cycle(); got != stop {
					t.Fatalf("RunTo(%d) stopped at %d", stop, got)
				}
			}
			snap := forked.Checkpoint()
			for rerun := 0; rerun < 2; rerun++ {
				if err := forked.RestoreCheckpoint(snap); err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(forked, mustRun(t, forked)); got != want {
					t.Errorf("rerun %d: mid-skip fork diverges\nstraight:\n%s\nforked:\n%s", rerun, want, got)
				}
			}
			// Skip coverage legitimately differs between the two runs (the
			// RunTo stops split windows and reset the probe backoff); what
			// matters is that the forked run really exercised the skip path.
			if straight.Engine.SkippedCycles() == 0 || forked.Engine.SkippedCycles() == 0 {
				t.Errorf("skip path not exercised: straight skipped %d, forked %d",
					straight.Engine.SkippedCycles(), forked.Engine.SkippedCycles())
			}
		})
	}
}

// TestCheckpointExcludesProgram: a core's program is wiring, not state.
// Flipping an immediate in the source system's program after Checkpoint
// leaves the snapshot valid, and a separately built system restored from
// it still runs bit-identically to a straight run.
func TestCheckpointExcludesProgram(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			build := func() *System {
				sys, err := Build(kind, ckGroup(), Options{Seed: 11, WireInjector: true})
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			src := build()
			if err := src.RunTo(500); err != nil {
				t.Fatal(err)
			}
			snap := src.Checkpoint()
			insts := src.Compiled[0].Program.Insts
			i := slices.IndexFunc(insts, func(in isa.Inst) bool { return in.Op == isa.OpMovI })
			if i < 0 {
				t.Fatal("program has no immediate to flip")
			}
			insts[i].Imm ^= 1
			if err := snap.Verify(); err != nil {
				t.Fatalf("flipping the source's program invalidated its snapshot: %v", err)
			}
			straight := build()
			want := fingerprint(straight, mustRun(t, straight))
			forked := build()
			if err := forked.RestoreCheckpoint(snap); err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(forked, mustRun(t, forked)); got != want {
				t.Errorf("restored run diverges from straight run\nstraight:\n%s\nforked:\n%s", want, got)
			}
		})
	}
}

// TestCheckpointStatsCellStability pins the counter-registry contract that
// the zero-allocation hot path depends on: *uint64 cells handed out before a
// checkpoint remain the live cells after both RestoreCheckpoint and
// RestoreCheckpointTrusted (written in place, not replaced), so components
// caching them keep counting into the registry.
func TestCheckpointStatsCellStability(t *testing.T) {
	sys, err := Build(Occamy, ckGroup(), Options{Seed: 3, WireInjector: true})
	if err != nil {
		t.Fatal(err)
	}
	cell := sys.Stats.Counter("vec.hit")
	if err := sys.RunTo(500); err != nil {
		t.Fatal(err)
	}
	snap := sys.Checkpoint()
	mustRun(t, sys)
	final := *cell
	if final == 0 {
		t.Fatal("vec.hit never moved; pick a hotter counter")
	}
	for _, name := range []string{"RestoreCheckpoint", "RestoreCheckpointTrusted"} {
		if name == "RestoreCheckpointTrusted" {
			sys.RestoreCheckpointTrusted(snap)
		} else if err := sys.RestoreCheckpoint(snap); err != nil {
			t.Fatal(err)
		}
		if got := sys.Stats.Get("vec.hit"); got != *cell {
			t.Fatalf("%s: restored registry (%d) disagrees with pre-checkpoint cell (%d)", name, got, *cell)
		}
		if *cell >= final {
			t.Fatalf("%s did not rewind the cell: %d, final was %d", name, *cell, final)
		}
		mustRun(t, sys)
		if *cell != final {
			t.Fatalf("cell stopped tracking the registry after %s: %d, want %d", name, *cell, final)
		}
		if sys.Stats.Counter("vec.hit") != cell {
			t.Fatalf("Counter returned a different cell after %s", name)
		}
	}
}

// TestCheckpointDigestTamperRejected is the integrity contract: a snapshot
// with even one flipped bit must be refused by RestoreCheckpoint with a
// *CorruptCheckpointError, leaving the target system untouched — a corrupted
// cache entry degrades to a cold run, never to a silently wrong answer.
func TestCheckpointDigestTamperRejected(t *testing.T) {
	sys, err := Build(Occamy, ckGroup(), Options{Seed: 7, WireInjector: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(500); err != nil {
		t.Fatal(err)
	}
	snap := sys.Checkpoint()
	if err := snap.Verify(); err != nil {
		t.Fatalf("fresh snapshot fails Verify: %v", err)
	}
	if snap.Digest() == 0 {
		t.Fatal("snapshot digest not stamped")
	}
	if err := sys.RunTo(800); err != nil {
		t.Fatal(err)
	}
	atTamper := sys.Engine.Cycle()

	snap.Tamper()
	err = sys.RestoreCheckpoint(snap)
	var cerr *CorruptCheckpointError
	if !errors.As(err, &cerr) {
		t.Fatalf("RestoreCheckpoint(tampered) = %v, want *CorruptCheckpointError", err)
	}
	if cerr.Want == cerr.Got {
		t.Fatalf("error reports matching digests: %+v", cerr)
	}
	if got := sys.Engine.Cycle(); got != atTamper {
		t.Fatalf("refused restore still moved the clock: %d, want %d", got, atTamper)
	}

	// Un-tampering restores integrity: the same snapshot object verifies and
	// restores again (Tamper is an involution).
	snap.Tamper()
	if err := sys.RestoreCheckpoint(snap); err != nil {
		t.Fatalf("restore after un-tamper: %v", err)
	}
	if got := sys.Engine.Cycle(); got != 500 {
		t.Fatalf("restored clock at %d, want 500", got)
	}
}

// TestCheckpointDigestContentAddressed: two snapshots of the same machine
// state — same build recipe, same cycle — digest identically even across
// distinct System instances, the property the serve layer's content-addressed
// checkpoint cache keys on. A snapshot at a different cycle must differ.
func TestCheckpointDigestContentAddressed(t *testing.T) {
	build := func() *System {
		sys, err := Build(VLS, ckGroup(), Options{Seed: 7, WireInjector: true})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a, b := build(), build()
	if err := a.RunTo(400); err != nil {
		t.Fatal(err)
	}
	if err := b.RunTo(400); err != nil {
		t.Fatal(err)
	}
	da, db := a.Checkpoint().Digest(), b.Checkpoint().Digest()
	if da != db {
		t.Fatalf("identically built systems at the same cycle digest differently: %016x vs %016x", da, db)
	}
	if err := a.RunTo(600); err != nil {
		t.Fatal(err)
	}
	if dc := a.Checkpoint().Digest(); dc == da {
		t.Fatalf("snapshot at cycle 600 digests identically to cycle 400 (%016x)", dc)
	}
}

// TestRunCanceledReturnsDiagError: a run whose interrupt fires is killed
// cooperatively and surfaces the standard diagnostic machinery — errors.As
// reaches both the DiagError (with its machine dump) and the underlying
// sim.CanceledError, which is how the serve layer classifies timeouts.
func TestRunCanceledReturnsDiagError(t *testing.T) {
	sys, err := Build(Occamy, ckGroup(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	sys.SetInterrupt(done)
	_, err = sys.Run(50_000_000)
	var derr *DiagError
	if !errors.As(err, &derr) {
		t.Fatalf("canceled run returned %v, want *DiagError", err)
	}
	var cerr *sim.CanceledError
	if !errors.As(err, &cerr) {
		t.Fatalf("canceled run's error chain lacks *sim.CanceledError: %v", err)
	}
	if derr.Dump == nil {
		t.Fatal("canceled run carries no diagnostic dump")
	}
}
