package main

import (
	"fmt"
	"math/rand"
	"time"

	"occamy/internal/arch"
	"occamy/internal/coproc"
	"occamy/internal/experiments"
	"occamy/internal/workload"
)

// defaultSeed is the seed the benchmark is tuned on; heldOutSeed was kept
// out of tuning. Both have recorded outcome digests (digests.go).
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// runner runs one workload's job list. Setup builds it; close stops
// everything it started.
type runner interface {
	// numJobs is the length of the job list; job ids run 0..numJobs-1.
	numJobs() int
	// runJob runs job i of the list in its seeded order and records its
	// raw host time with phase.done.
	runJob(ph *phase, i int)
	// replay recomputes counts the workload's calls do not return (serve's
	// skip counts); it runs after the traced passes, untimed.
	replay(ph *phase) error
	// wantDigest is the outcome digest a correct run with this seed
	// reproduces (digests.go).
	wantDigest(seed uint64) (uint64, error)
	close() error
}

// runPhase cycles through the job list, probing the host between jobs,
// until every job ran once and d has passed, and, when untilEnough is set,
// until every job kind has minPerKind latency samples. Each job's host time
// is corrected by the mean of the probes before and after it. Calls on one
// phase accumulate. A partial last pass does not bias the rate, which takes
// each job's median time.
func runPhase(drv runner, ph *phase, pr *prober, d time.Duration, untilEnough bool) {
	start := time.Now()
	n := drv.numJobs()
	f := pr.factor()
	for i := 0; i < n || time.Since(start) < d || (untilEnough && !ph.enough()); i++ {
		drv.runJob(ph, i%n)
		next := pr.factor()
		ph.correct((f + next) / 2)
		f = next
	}
	ph.elapsed += time.Since(start)
}

type workloadDef struct {
	name  string
	setup func(seed uint64) (runner, error)
}

var workloads = map[string]workloadDef{
	// fig10 is what every reproduction runs (occamy-bench -exp fig10 -j 1):
	// the 25 Figure 10 pairs on all 4 architectures at full scale, verified,
	// one client, on the tick-bound 2-core flat machine (about 1% of cycles
	// skipped; no checkpoints, no fabric).
	"fig10": {"fig10", setupFig10},
	// scale64 is the -exp scale point with 64 cores and 4 clusters on all 4
	// architectures, one client. It carries the per-core scan cost behind
	// ROADMAP item 2: FTS skips most cycles here while the other three tick.
	"scale64": {"scale64", setupScale64},
	// serve is in-process occamy-serve, one worker and one waiting client,
	// over a seeded mix of verified campaign jobs (forked from cached
	// warm-up checkpoints) and low-load traffic jobs; it exercises
	// admission, the checkpoint cache, osched, traffic and skip-ahead, none
	// of which fig10 touches.
	"serve": {"serve", setupServe},
}

// maxCycles bounds every simulation (experiments.Default's budget).
const maxCycles = 400_000_000

// scaleRepeats shortens the 64-core group from the sweep's 20 strip-loop
// repeats; the group is shortened only here, never through Elems or Scale,
// which would drop the kernels below the compiler's vector threshold.
const scaleRepeats = 1

// simJob is one simulation of the fig10 or scale64 list.
type simJob struct {
	id     int // canonical index; the outcome digest folds jobs in id order
	name   string
	kind   arch.Kind
	sched  workload.CoSchedule
	opts   arch.Options
	verify bool
}

// simRunner runs its jobs one at a time, the way occamy-bench -j 1 does:
// build, run, verify.
type simRunner struct {
	name string // the workload, which keys workloadDigest
	jobs []simJob
}

// seeded returns the run's generator and the data seed it draws first.
func seeded(seed uint64) (*rand.Rand, uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	return rng, uint64(rng.Int63()) + 1
}

func setupFig10(seed uint64) (runner, error) {
	rng, data := seeded(seed)
	reg := workload.NewRegistry()
	d := &simRunner{name: "fig10"}
	for pi, p := range workload.Figure10Pairs(reg) {
		if err := guardVectorTrips(p); err != nil {
			return nil, err
		}
		for ki, k := range arch.Kinds {
			d.jobs = append(d.jobs, simJob{
				id: pi*len(arch.Kinds) + ki, name: p.Name + "/" + k.String(),
				kind: k, sched: p, opts: arch.Options{Seed: data}, verify: true,
			})
		}
	}
	rng.Shuffle(len(d.jobs), func(i, j int) { d.jobs[i], d.jobs[j] = d.jobs[j], d.jobs[i] })
	// Warm-up call: one fixed job, so set-up costs the same for every seed.
	warm := workload.Figure10Pairs(reg)[0]
	sys, err := arch.Build(arch.Occamy, warm, arch.Options{Seed: data})
	if err != nil {
		return nil, err
	}
	if _, err := sys.Run(maxCycles); err != nil {
		return nil, err
	}
	return d, sys.CheckResults(2e-3)
}

func scaleTopology() *coproc.Topology {
	return &coproc.Topology{
		Clusters:     4,
		HopLatency:   experiments.ScaleHopLatency,
		HopBandwidth: experiments.ScaleHopBandwidth,
	}
}

// scaleGroup is experiments.ScaleGroup at 64 cores with the repeats cut to
// scaleRepeats.
func scaleGroup(reg *workload.Registry) workload.CoSchedule {
	s := experiments.ScaleGroup(reg, 64)
	for _, w := range s.W {
		for _, k := range w.Phases {
			k.Repeats = scaleRepeats
		}
	}
	return s
}

func setupScale64(seed uint64) (runner, error) {
	rng, data := seeded(seed)
	s := scaleGroup(workload.NewRegistry())
	if err := guardVectorTrips(s); err != nil {
		return nil, err
	}
	d := &simRunner{name: "scale64"}
	for ki, k := range arch.Kinds {
		d.jobs = append(d.jobs, simJob{
			id: ki, name: s.Name + "/" + k.String(), kind: k, sched: s,
			opts: arch.Options{Seed: data, Topology: scaleTopology()},
		})
	}
	rng.Shuffle(len(d.jobs), func(i, j int) { d.jobs[i], d.jobs[j] = d.jobs[j], d.jobs[i] })
	// Warm-up call: build the 64-core machine and tick it briefly.
	sys, err := arch.Build(arch.Occamy, s, arch.Options{Seed: data, Topology: scaleTopology()})
	if err != nil {
		return nil, err
	}
	return d, sys.RunTo(1000)
}

func (d *simRunner) numJobs() int        { return len(d.jobs) }
func (d *simRunner) replay(*phase) error { return nil }
func (d *simRunner) close() error        { return nil }

func (d *simRunner) wantDigest(uint64) (uint64, error) {
	want, ok := workloadDigest[d.name]
	if !ok {
		return 0, fmt.Errorf("no recorded digest for %s", d.name)
	}
	return want, nil
}

// runJob executes one job with a span around each call into a layer.
func (d *simRunner) runJob(ph *phase, i int) {
	j := d.jobs[i]
	ph.jobs++
	tr := ph.tr
	t0 := time.Now()
	root := tr.begin(j.name, j.name, 0)
	defer tr.end(root)

	sp := tr.begin("arch.Build", j.name, root)
	sys, err := arch.Build(j.kind, j.sched, j.opts)
	tr.end(sp)
	if err != nil {
		ph.fail(j.name, err)
		return
	}
	sp = tr.begin("arch.System.Run", j.name, root)
	res, err := sys.Run(maxCycles)
	tr.end(sp)
	if err != nil {
		ph.fail(j.name, err)
		return
	}
	if j.verify {
		sp = tr.begin("arch.System.CheckResults", j.name, root)
		err = sys.CheckResults(2e-3)
		tr.end(sp)
		if err != nil {
			ph.fail(j.name, err)
			return
		}
	}
	if err := guardIssued(res); err != nil {
		ph.fail(j.name, err)
		return
	}
	if err := ph.outs.check(j.id, simOutcome(res)); err != nil {
		ph.fail(j.name, err)
		return
	}
	ph.done(j.id, res.Cycles, time.Since(t0).Seconds())
	ph.c.runCycles += sys.Engine.Cycle()
	ph.c.skipped += sys.Engine.SkippedCycles()
	ph.c.migrations += res.Migrations
	ph.c.refusals += res.FabricRefusals
	ph.c.repartitions += res.Repartitions
	ph.c.reconfigures += res.Reconfigures
}

// simOutcome is one simulation's outcome word: per-core cycles and elements,
// and the recovery count.
func simOutcome(res *arch.Result) uint64 {
	words := []uint64{uint64(len(res.Recoveries))}
	for _, c := range res.Cores {
		words = append(words, c.Cycles, c.Elems)
	}
	return fold(words...)
}
