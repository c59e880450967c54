package arch

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"occamy/internal/coproc"
	"occamy/internal/fault"
	"occamy/internal/sim"
	"occamy/internal/telemetry"
	"occamy/internal/workload"
)

// faultPair builds a two-core co-schedule of identical non-reduction triad
// kernels (out[i] = 1.5*a[i] + b[i]): elementwise and store-idempotent, so a
// forced VL shrink at a drain point re-executes at worst a partial strip with
// identical results — the workload shape the fault policies are specified
// over.
func faultPair(elems, repeats int) workload.CoSchedule {
	mk := func(name string) *workload.Workload {
		return &workload.Workload{Name: name, Phases: []*workload.Kernel{{
			Name:  name + ".triad",
			Slots: []workload.LoadSlot{{Stream: 0}, {Stream: 1}},
			Stmts: []workload.Stmt{{
				Out: 2,
				E:   workload.Add(workload.Mul(workload.Slot(0), workload.Const(1.5)), workload.Slot(1)),
			}},
			Elems:   elems,
			Repeats: repeats,
		}}}
	}
	return workload.CoSchedule{Name: "faulttriad", W: []*workload.Workload{mk("triad0"), mk("triad1")}}
}

// TestFaultFreeRunsBitIdentical is the differential guarantee: registering
// the fault machinery with a fault that never fires must leave every
// architecture's cycles, statistics and per-core results bit-identical to a
// plain run (compared on the legacy tick path; skip-ahead runs are pinned to
// legacy ones by TestEngineSkipAheadBitIdentical, and faulted ones by
// TestFaultedSkipAheadBitIdentical).
func TestFaultFreeRunsBitIdentical(t *testing.T) {
	pair := faultPair(512, 12)
	for _, kind := range Kinds {
		run := func(faults []fault.Fault) (*System, *Result) {
			t.Helper()
			sys, err := Build(kind, pair, Options{Seed: 11, LegacyTick: true, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(400_000_000)
			if err != nil {
				t.Fatal(err)
			}
			return sys, res
		}
		plainSys, plain := run(nil)
		// Fires 10x beyond any plausible end of this run.
		armedSys, armed := run([]fault.Fault{{Kind: fault.ExeBU, Count: 1, Core: fault.AnyCore, At: 4_000_000_000}})

		if p, a := plainSys.Engine.Cycle(), armedSys.Engine.Cycle(); p != a {
			t.Errorf("%v: engine cycle plain=%d armed=%d", kind, p, a)
		}
		if diffs := diffStats(plainSys.Stats.Snapshot(), armedSys.Stats.Snapshot()); len(diffs) > 0 {
			t.Errorf("%v: %d stats diverge, e.g. %s", kind, len(diffs), diffs[0])
		}
		// Recoveries differ by construction (armed logs none either, since
		// the fault never fired) — the rest must match exactly.
		armed.Recoveries = plain.Recoveries
		if !reflect.DeepEqual(plain, armed) {
			t.Errorf("%v: results diverge:\nplain: %+v\narmed: %+v", kind, plain, armed)
		}
		if err := armedSys.CheckResults(2e-3); err != nil {
			t.Errorf("%v: functional check with armed injector: %v", kind, err)
		}
	}
}

// TestFaultedSkipAheadBitIdentical: faulted runs skip ahead too, and must
// match the every-cycle engine exactly. Four fault kinds on all four
// architectures, each run with telemetry on, compared on Result, the counter
// registry and the telemetry digest; the skip-ahead run must elide cycles.
func TestFaultedSkipAheadBitIdentical(t *testing.T) {
	pair := workload.MotivatingPair(workload.NewRegistry()).Scaled(0.1)
	for _, spec := range []string{
		"exebu:2@2000+3000", // transient
		"exebu:1@2000",      // permanent
		"bw:dram:0.5@1000+9000",
		"xmit:core0@500+2000",
	} {
		faults, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range Kinds {
			name := fmt.Sprintf("%s on %s", spec, kind)
			run := func(legacy bool) (*System, *Result) {
				t.Helper()
				sys, err := Build(kind, pair, Options{
					Seed: 11, Faults: faults, LegacyTick: legacy, StallCycles: 300_000,
					Telemetry: &telemetry.Config{Window: 512},
				})
				if err != nil {
					t.Fatal(err)
				}
				res := mustRun(t, sys)
				if len(res.Recoveries) == 0 {
					t.Fatalf("%s: the fault never fired", name)
				}
				return sys, res
			}
			leg, legRes := run(true)
			skip, skipRes := run(false)
			if skip.Engine.SkippedCycles() == 0 {
				t.Errorf("%s: skip-ahead run skipped no cycles", name)
			}
			if !reflect.DeepEqual(legRes, skipRes) {
				t.Errorf("%s: results diverge:\nlegacy: %+v\nskip:   %+v", name, legRes, skipRes)
			}
			if diffs := diffStats(leg.Stats.Snapshot(), skip.Stats.Snapshot()); len(diffs) > 0 {
				t.Errorf("%s: %d stats diverge, e.g. %s", name, len(diffs), diffs[0])
			}
			if l, s := teleDigest(leg), teleDigest(skip); l != s {
				t.Errorf("%s: telemetry digest legacy=%#x skip=%#x", name, l, s)
			}
		}
	}
}

// TestExeBUFaultAllArchsRecoverable: with one ExeBU failing mid-run, every
// architecture must still complete with correct results (one unit is within
// everyone's surviving capacity), and the elastic/static reactions must be
// visible: the lane table records the failure, Occamy and VLS log a completed
// repartition recovery.
func TestExeBUFaultAllArchsRecoverable(t *testing.T) {
	pair := faultPair(512, 24)
	faults := []fault.Fault{{Kind: fault.ExeBU, Count: 1, At: 1000}}
	for _, kind := range Kinds {
		sys, err := Build(kind, pair, Options{Seed: 11, Faults: faults, StallCycles: 300_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(400_000_000)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := sys.CheckResults(2e-3); err != nil {
			t.Errorf("%v: functional check after fault: %v", kind, err)
		}
		if got := sys.Clusters[0].Tbl().Failed(); got != 1 {
			t.Errorf("%v: lane table records %d failed units, want 1", kind, got)
		}
		if len(res.Recoveries) != 1 {
			t.Fatalf("%v: %d recoveries logged, want 1", kind, len(res.Recoveries))
		}
		rec := res.Recoveries[0]
		if rec.Pending {
			t.Errorf("%v: recovery still pending at end of run", kind)
		}
		if rec.At != 1000 {
			t.Errorf("%v: recovery At=%d, want 1000", kind, rec.At)
		}
		switch kind {
		case Occamy, VLS:
			// Post-fault the published lane plan must fit the survivors.
			sum := 0
			for c := range sys.Cores {
				sum += sys.Clusters[0].Tbl().VL(c)
			}
			if usable := sys.Clusters[0].Tbl().Usable(); sum > usable {
				t.Errorf("%v: post-fault Σvl=%d exceeds usable=%d", kind, sum, usable)
			}
		}
	}
}

// TestTransientExeBURepairs: a transient ExeBU failure must repair — the
// usable pool returns to full size — and Occamy must re-grow its lane plan
// through the normal EM-SIMD protocol (no forced growth anywhere).
func TestTransientExeBURepairs(t *testing.T) {
	pair := faultPair(512, 48)
	faults := []fault.Fault{{Kind: fault.ExeBU, Count: 2, At: 1000, For: 3000}}
	sys, err := Build(Occamy, pair, Options{Seed: 11, Faults: faults, StallCycles: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(400_000_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckResults(2e-3); err != nil {
		t.Errorf("functional check after transient: %v", err)
	}
	tbl := sys.Clusters[0].Tbl()
	if tbl.Failed() != 0 {
		t.Errorf("transient did not repair: %d units still failed", tbl.Failed())
	}
	if tbl.Usable() != tbl.Total() {
		t.Errorf("usable=%d after repair, want %d", tbl.Usable(), tbl.Total())
	}
}

// TestPrivateLosesVictimHalf: when a victim core's whole private half dies,
// Private cannot make progress on that core — the watchdog must convert the
// livelock into a structured diagnostic dump instead of burning the full
// cycle budget.
func TestPrivateLosesVictimHalf(t *testing.T) {
	pair := faultPair(512, 48)
	// 7 of 8 units: round-robin assignment kills core 0's entire half. The
	// literal's zero Cluster names cluster 0, which the dump spells out.
	faults := []fault.Fault{{Kind: fault.ExeBU, Count: 7, At: 1000}}
	sys, err := Build(Private, pair, Options{Seed: 11, Faults: faults, StallCycles: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(400_000_000)
	if err == nil {
		t.Fatal("expected a watchdog stall, run completed")
	}
	var derr *DiagError
	if !errors.As(err, &derr) {
		t.Fatalf("error is not a DiagError: %v", err)
	}
	var serr *sim.StallError
	if !errors.As(err, &serr) {
		t.Fatalf("DiagError does not wrap a StallError: %v", err)
	}
	if derr.Dump == nil {
		t.Fatal("DiagError carries no dump")
	}
	text := derr.Dump.String()
	for _, want := range []string{"diagnostic dump", "failed=7", "fault exebu:cl0:7@1000"} {
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %q:\n%s", want, text)
		}
	}
	if res == nil {
		t.Fatal("failed run returned no partial result")
	}
	if res.Cores[0].Elems >= res.Cores[1].Elems {
		t.Errorf("victim core 0 elems=%d not behind survivor core 1 elems=%d",
			res.Cores[0].Elems, res.Cores[1].Elems)
	}
}

// TestOccamySurvivesWhatKillsPrivate: the same 7-of-8 failure that livelocks
// Private completes on Occamy — the elastic plan shrinks everyone onto the
// survivors (with the fairness-floor oversubscription for the last unit).
func TestOccamySurvivesWhatKillsPrivate(t *testing.T) {
	pair := faultPair(512, 24)
	faults := []fault.Fault{{Kind: fault.ExeBU, Count: 7, At: 1000}}
	sys, err := Build(Occamy, pair, Options{Seed: 11, Faults: faults, StallCycles: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(400_000_000)
	if err != nil {
		t.Fatalf("Occamy did not survive: %v", err)
	}
	if err := sys.CheckResults(2e-3); err != nil {
		t.Errorf("functional check: %v", err)
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].Pending {
		t.Fatalf("expected one completed recovery, got %+v", res.Recoveries)
	}
	if ttr := res.Recoveries[0].TimeToRepartition(); ttr == 0 {
		t.Error("time-to-repartition is zero; expected a drain-gated reaction")
	}
}

// TestXmitLinkFaultRetries: dropped CPU→coproc transmissions are retried by
// the core's existing stall-and-retry dispatch path and the run completes
// with correct results; the drop count is reported.
func TestXmitLinkFaultRetries(t *testing.T) {
	pair := faultPair(512, 24)
	faults := []fault.Fault{{Kind: fault.XmitLink, Core: 0, At: 2000, For: 20_000}}
	sys, err := Build(Occamy, pair, Options{Seed: 11, Faults: faults, StallCycles: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(400_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckResults(2e-3); err != nil {
		t.Errorf("functional check: %v", err)
	}
	if res.LinkDrops == 0 {
		t.Error("link fault window dropped no transmissions")
	}
}

// TestRegBankAndBandwidthFaultsComplete: the remaining fault kinds degrade
// but never deadlock, and slow the machine down measurably.
func TestRegBankAndBandwidthFaultsComplete(t *testing.T) {
	pair := faultPair(512, 24)
	base, err := Build(Occamy, pair, Options{Seed: 11, LegacyTick: true})
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.Run(400_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]fault.Fault{
		"regs": {Kind: fault.RegBank, Core: 0, Count: 100, At: 2000},
		"bw":   {Kind: fault.Bandwidth, Level: "vec", Factor: 0.1, At: 2000},
	} {
		sys, err := Build(Occamy, pair, Options{Seed: 11, Faults: []fault.Fault{f}, StallCycles: 300_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(400_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sys.CheckResults(2e-3); err != nil {
			t.Errorf("%s: functional check: %v", name, err)
		}
		if res.Cycles <= baseRes.Cycles {
			t.Errorf("%s: faulted run (%d cycles) not slower than clean run (%d)",
				name, res.Cycles, baseRes.Cycles)
		}
	}
}

// TestRegBankFaultCutsHomePoolOnly: on a clustered FTS machine each cluster
// renames against its own shared register pool, and a failed register bank
// is charged to its victim's home pool only. A failure that takes every free
// register of the victim's pool stalls the victim for good, while the core
// on the other cluster runs to completion.
func TestRegBankFaultCutsHomePoolOnly(t *testing.T) {
	pair := faultPair(512, 12)
	for victim := range pair.W {
		// Each cluster's pool holds half of the 160 shared registers, 32 of
		// them architectural: 48 are free.
		sys, err := Build(FTS, pair, Options{Seed: 11, Topology: &coproc.Topology{Clusters: 2}, StallCycles: 20_000,
			Faults: []fault.Fault{{Kind: fault.RegBank, Core: victim, Count: 48, At: 300}}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.Run(400_000_000)
		var stall *sim.StallError
		if !errors.As(err, &stall) {
			t.Fatalf("victim core %d: the run ended with %v, want a stall", victim, err)
		}
		other, now := 1-victim, sys.Engine.Cycle()
		if !sys.Cores[other].Halted() || !sys.Cplx.Quiescent(other, now) {
			t.Errorf("victim core %d: core %d on the other cluster did not finish", victim, other)
		}
		if sys.Cores[victim].Halted() {
			t.Errorf("victim core %d finished without a free register", victim)
		}
	}
}

// TestFaultDeterminism: same spec + same seed ⇒ identical runs; a different
// seed may pick a different victim but must itself be reproducible.
func TestFaultDeterminism(t *testing.T) {
	pair := faultPair(512, 12)
	faults := []fault.Fault{
		{Kind: fault.ExeBU, Count: 2, At: 3000, For: 8000},
		{Kind: fault.XmitLink, Core: fault.AnyCore, At: 2000, For: 5000},
	}
	run := func(seed uint64) string {
		sys, err := Build(Occamy, pair, Options{Seed: seed, Faults: faults, StallCycles: 300_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(400_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %d %+v %v", res.Cycles, res.LinkDrops, res.Recoveries, sys.Stats.Snapshot())
	}
	if a, b := run(11), run(11); a != b {
		t.Errorf("same seed diverged:\n%s\n%s", a, b)
	}
	if a, b := run(12), run(12); a != b {
		t.Errorf("seed 12 not reproducible:\n%s\n%s", a, b)
	}
}

// TestBuildRejectsBadFaults: fault validation happens at build time.
func TestBuildRejectsBadFaults(t *testing.T) {
	pair := faultPair(64, 1)
	for name, f := range map[string]fault.Fault{
		"zero count":   {Kind: fault.ExeBU, Count: 0, At: 10},
		"bad level":    {Kind: fault.Bandwidth, Level: "l9", Factor: 0.5, At: 10},
		"bad factor":   {Kind: fault.Bandwidth, Level: "dram", Factor: 1.5, At: 10},
		"out of range": {Kind: fault.XmitLink, Core: 7, At: 10},
	} {
		if _, err := Build(Occamy, pair, Options{Faults: []fault.Fault{f}}); err == nil {
			t.Errorf("%s: Build accepted invalid fault %+v", name, f)
		}
	}
}

// TestTTRStats pins the one time-to-repartition summary the report, the
// degradation study and serve's campaigns share: minimum, lower median and
// maximum over any input order.
func TestTTRStats(t *testing.T) {
	for _, tc := range []struct {
		name          string
		ttrs          []uint64
		min, p50, max uint64
		n             int
	}{
		{"empty", nil, 0, 0, 0, 0},
		{"single", []uint64{42}, 42, 42, 42, 1},
		{"odd", []uint64{10, 20, 30}, 10, 20, 30, 3},
		{"even takes the lower median", []uint64{10, 20, 30, 40}, 10, 20, 40, 4},
		{"unsorted", []uint64{900, 5, 300, 5, 70}, 5, 70, 900, 5},
	} {
		min, p50, max, n := TTRStats(tc.ttrs)
		if min != tc.min || p50 != tc.p50 || max != tc.max || n != tc.n {
			t.Errorf("%s: TTRStats = %d, %d, %d, %d; want %d, %d, %d, %d",
				tc.name, min, p50, max, n, tc.min, tc.p50, tc.max, tc.n)
		}
	}
}
