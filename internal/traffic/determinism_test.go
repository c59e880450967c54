package traffic

import (
	"sync"
	"testing"

	"occamy/internal/arch"
	"occamy/internal/digest"
	"occamy/internal/fault"
)

// variant is one execution strategy of the same logical scenario: a run
// that builds its whole world from its own inputs and returns the outcome
// digest it is required to reproduce.
type variant struct {
	name string
	run  func(t *testing.T) uint64
}

// checkVariants runs every variant sequentially and fails the test unless
// all digests are identical, reporting the full table on divergence.
func checkVariants(t *testing.T, variants []variant) {
	t.Helper()
	digests := make([]uint64, len(variants))
	for i, v := range variants {
		digests[i] = v.run(t)
	}
	reportVariants(t, variants, digests)
}

// checkVariantsParallel runs every variant in its own goroutine (the -j N
// equivalence property: concurrent execution must not perturb outcomes)
// and fails unless all digests agree.
func checkVariantsParallel(t *testing.T, variants []variant) {
	t.Helper()
	digests := make([]uint64, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		go func(i int, v variant) {
			defer wg.Done()
			digests[i] = v.run(t)
		}(i, v)
	}
	wg.Wait()
	reportVariants(t, variants, digests)
}

func reportVariants(t *testing.T, variants []variant, digests []uint64) {
	t.Helper()
	if len(variants) < 2 {
		t.Fatal("need at least two variants to compare")
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			for i, v := range variants {
				t.Errorf("variant %-24s digest %016x", v.name, digests[i])
			}
			t.Fatalf("%d variants diverged", len(variants))
		}
	}
}

func mustFaults(t *testing.T, spec string) []fault.Fault {
	t.Helper()
	fs, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// outcomeDigest folds everything a traffic run is contractually required to
// reproduce: the Source's per-task outcome digest and the stop cycle.
func outcomeDigest(sc *Scenario) uint64 {
	d := digest.NewFNV()
	d.U64(sc.Src.Digest(), sc.Sys.Engine.Cycle(), sc.Sched.Switches)
	return d.Sum()
}

func runDigest(t *testing.T, kind arch.Kind, spec Spec, opts arch.Options) uint64 {
	t.Helper()
	sc := runScenario(t, kind, spec, opts)
	if err := sc.ConservationDeep(); err != nil {
		t.Fatal(err)
	}
	return outcomeDigest(sc)
}

// TestTrafficSkipLegacyBitIdentical: the same seeded scenario must produce
// bit-identical outcomes whether the engine skip-aheads over quiescent
// windows or ticks every cycle — on every architecture, with churn on.
func TestTrafficSkipLegacyBitIdentical(t *testing.T) {
	spec := smallSpec("churn=5000:8000")
	for _, kind := range arch.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			checkVariants(t, []variant{
				{name: "skip-ahead", run: func(t *testing.T) uint64 {
					return runDigest(t, kind, spec, arch.Options{Seed: 21})
				}},
				{name: "legacy-tick", run: func(t *testing.T) uint64 {
					return runDigest(t, kind, spec, arch.Options{Seed: 21, LegacyTick: true})
				}},
			})
		})
	}
}

// TestTrafficSkipAheadEngages guards against the skip/legacy property
// passing vacuously: a lightly loaded scenario has long idle gaps between
// arrivals, and the engine must actually skip them (the scheduler and the
// traffic source are both sleepers).
func TestTrafficSkipAheadEngages(t *testing.T) {
	spec, err := ParseSpec("poisson:load=0.2,tenants=2,cores=2,horizon=60000,slice=1500,elems=256,repeats=1,drain")
	if err != nil {
		t.Fatal(err)
	}
	sc := runScenario(t, arch.Occamy, spec, arch.Options{Seed: 4})
	if sc.Sys.Engine.Skips() == 0 {
		t.Fatal("skip-ahead never engaged on an idle-heavy traffic run")
	}
}

// TestTrafficParallelBitIdentical: concurrent scenario runs (the -j N
// path) must not perturb outcomes — four goroutines running the same
// seeded scenario against a serial reference.
func TestTrafficParallelBitIdentical(t *testing.T) {
	spec := smallSpec("churn=5000:8000")
	run := func(t *testing.T) uint64 {
		return runDigest(t, arch.Occamy, spec, arch.Options{Seed: 33})
	}
	serial := run(t)
	checkVariantsParallel(t, []variant{
		{name: "parallel-1", run: run},
		{name: "parallel-2", run: run},
		{name: "parallel-3", run: run},
		{name: "parallel-4", run: run},
	})
	if d := run(t); d != serial {
		t.Fatalf("serial rerun diverged: %016x vs %016x", d, serial)
	}
}

// TestTrafficCheckpointForkBitIdentical: forking a run from a mid-flight
// checkpoint — arrivals pending, tasks queued, possibly mid-switch — must
// finish bit-identically to the straight run, on every architecture.
func TestTrafficCheckpointForkBitIdentical(t *testing.T) {
	spec := smallSpec("churn=5000:8000")
	for _, kind := range arch.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			// Straight run for the reference digest.
			straight := runDigest(t, kind, spec, arch.Options{Seed: 55})

			// Forked run: pause mid-flight, snapshot, finish, rewind,
			// finish again. Both continuations and the straight run must
			// agree.
			sc, err := Build(kind, spec, arch.Options{Seed: 55})
			if err != nil {
				t.Fatal(err)
			}
			mid := spec.Horizon / 2
			if _, err := sc.Sys.Engine.RunUntil(func() bool { return sc.Sys.Engine.Cycle() >= mid }, sc.DefaultBudget()); err != nil {
				t.Fatal(err)
			}
			cp := sc.Snapshot()
			if err := sc.Run(sc.DefaultBudget()); err != nil {
				t.Fatal(err)
			}
			first := outcomeDigest(sc)
			if err := sc.RestoreSnapshot(cp); err != nil {
				t.Fatal(err)
			}
			if err := sc.Run(sc.DefaultBudget()); err != nil {
				t.Fatal(err)
			}
			second := outcomeDigest(sc)
			if first != straight {
				t.Fatalf("paused run diverged from straight: %016x vs %016x", first, straight)
			}
			if second != first {
				t.Fatalf("forked continuation diverged: %016x vs %016x", second, first)
			}
		})
	}
}

// TestTrafficFaultedDeterminism: the scenario must reproduce exactly under
// faults (same seed, two runs, and the every-cycle engine) and conserve
// every task.
func TestTrafficFaultedDeterminism(t *testing.T) {
	spec := smallSpec("churn=5000:8000")
	opts := arch.Options{Seed: 77, Faults: mustFaults(t, "exebu:2@9000+15000")}
	run := func(t *testing.T) uint64 {
		return runDigest(t, arch.Occamy, spec, opts)
	}
	legacy := opts
	legacy.LegacyTick = true
	checkVariants(t, []variant{
		{name: "faulted-run-1", run: run},
		{name: "faulted-run-2", run: run},
		{name: "faulted-legacy", run: func(t *testing.T) uint64 { return runDigest(t, arch.Occamy, spec, legacy) }},
	})
}
