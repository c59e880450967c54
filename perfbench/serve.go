package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"occamy"
	"occamy/internal/arch"
	"occamy/internal/serve"
	"occamy/internal/traffic"
)

const (
	// serveWorkers is one, and one client submits each job only after the
	// previous one finished: on a 2-vCPU host two concurrent simulations
	// contend for the memory system and with the garbage collector, so a
	// job's time depends on which job runs beside it, and the rate spread
	// three times as much between runs. With one at a time the contention
	// probe also runs between jobs while nothing else does.
	serveWorkers = 1
	// serveBlocks groups of one campaign per warm-up key and one traffic
	// job per (architecture, load) make up the job list: half campaigns and
	// half traffic jobs, so a run collects minPerKind of each kind soonest.
	serveBlocks = 4
	// campaignWarmup and campaignFaulted give every campaign the shape of
	// the one README.md documents: a 20000-cycle warm-up, then the
	// fault-free point and two faulted points forked from its checkpoint.
	campaignWarmup  = 20000
	campaignFaulted = 2
	// trafficSeeds is how many traffic-spec seeds jobs draw from. The fault
	// menu and the traffic specs are finite so that every job's outcome can
	// be recorded (outcomes.json) and checked for any run seed.
	trafficSeeds = 8
)

var (
	serveArchs = []string{"private", "fts", "vls", "occamy"}
	// campaignPairs are the pair README.md's campaign runs and a second
	// Figure 10 pair of similar length (48k-66k cycles on every
	// architecture), so campaign costs stay within 2x.
	campaignPairs = [][]string{{"spec/WL20", "spec/WL17"}, {"cv/WL11", "cv/WL1"}}
	// trafficLoads are low loads (at most 1, where skip-ahead elides about
	// half the cycles); the traffic process and seed are drawn per job.
	trafficLoads = []string{"0.5", "0.75"}
	trafficProcs = []string{"poisson", "bursty", "diurnal"}
	// warmupTraffic is set-up's untimed warm-up call: fixed, so set-up costs
	// the same for every seed, and a traffic job, so the checkpoint cache
	// starts empty.
	warmupTraffic = serve.JobSpec{Tenant: "setup", Kind: "traffic", Arch: "occamy", Verify: true,
		Traffic: "poisson:load=0.5,tenants=2,cores=2,seed=1"}
)

// faultMenu lists the faulted campaign points: README.md's single-unit
// ExeBU failure plus transient ExeBU, DRAM-bandwidth and transmission-link
// faults, each 2000, 5000 and 8000 cycles after the warm-up fork. README.md's
// two-unit failure is left out: it takes all of a VLS core's 2-unit static
// share on the spec/WL20+spec/WL17 pair, and that run stalls
// (guardFaultPoint).
func faultMenu() []string {
	var m []string
	for i, at := range []int{22000, 25000, 28000} {
		m = append(m,
			fmt.Sprintf("exebu:1@%d", at),
			fmt.Sprintf("exebu:1@%d+3000", at),
			fmt.Sprintf("bw:dram:0.5@%d+3000", at),
			fmt.Sprintf("xmit:core%d@%d+3000", i%2, at))
	}
	return m
}

// trafficSpec is one traffic job's spec string.
func trafficSpec(proc, load string, seed int) string {
	return fmt.Sprintf("%s:load=%s,tenants=2,cores=2,seed=%d", proc, load, seed)
}

type serveJob struct {
	id      int
	spec    serve.JobSpec
	warmKey uint64 // campaign jobs: the checkpoint-cache key of the warm-up
}

type serveRunner struct {
	srv  *serve.Server
	jobs []serveJob
	// skips caches each traffic job's replayed skip count.
	skips map[int]uint64
	// warmed holds the warm-up keys of the campaigns drawn so far.
	warmed map[uint64]bool
}

func setupServe(seed uint64) (runner, error) {
	// One P: the simulation runs on the service's worker goroutine, not on
	// the goroutine that just ran the contention probe, and the host's
	// contention differs between vCPUs. On one P both run on one vCPU; with
	// two, the corrected rate spread three times as much between runs. The
	// simulation workloads keep both Ps: their jobs run on the probing
	// goroutine, and the collector's concurrent work stays off their vCPU.
	runtime.GOMAXPROCS(1)
	jobs, err := serveJobs(seed)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Workers: serveWorkers})
	if err != nil {
		return nil, err
	}
	d := &serveRunner{srv: srv, jobs: jobs, skips: map[int]uint64{}, warmed: map[uint64]bool{}}
	job, _, err := srv.Submit(warmupTraffic)
	if err != nil {
		d.close()
		return nil, err
	}
	<-job.Done()
	if st := job.Status(); st != serve.StateDone {
		d.close()
		return nil, fmt.Errorf("warm-up job %s: %s", st, job.View().Error)
	}
	return d, nil
}

// serveJobs draws the seeded job list: serveBlocks groups, each holding one
// verified campaign per warm-up key (the fault-free point and
// campaignFaulted points drawn from the fault menu) and one low-load traffic
// job per (architecture, load), shuffled within the group. Every job passes
// the input guards.
func serveJobs(seed uint64) ([]serveJob, error) {
	rng, data := seeded(seed)
	menu := faultMenu()
	for _, pair := range campaignPairs {
		if err := guardCampaign(pair, menu, data); err != nil {
			return nil, err
		}
	}
	var specs []serve.JobSpec
	for b := 0; b < serveBlocks; b++ {
		var block []serve.JobSpec
		for _, pair := range campaignPairs {
			for _, a := range serveArchs {
				faults := []string{""}
				for _, k := range rng.Perm(len(menu))[:campaignFaulted] {
					faults = append(faults, menu[k])
				}
				block = append(block, serve.JobSpec{
					Kind: "campaign", Arch: a, Workloads: pair, Seed: data, Verify: true,
					WarmupCycles: campaignWarmup, Faults: faults,
				})
			}
		}
		for _, a := range serveArchs {
			for _, load := range trafficLoads {
				spec := trafficSpec(trafficProcs[rng.Intn(len(trafficProcs))], load, 1+rng.Intn(trafficSeeds))
				if err := guardTraffic(spec); err != nil {
					return nil, err
				}
				block = append(block, serve.JobSpec{Kind: "traffic", Arch: a, Seed: data, Verify: true, Traffic: spec})
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		specs = append(specs, block...)
	}
	if err := guardWarmKeys(specs); err != nil {
		return nil, err
	}
	jobs := make([]serveJob, len(specs))
	for i, s := range specs {
		jobs[i] = serveJob{id: i, spec: s}
		if s.Kind == "campaign" {
			jobs[i].warmKey = s.WarmKey()
		}
	}
	return jobs, nil
}

func (d *serveRunner) numJobs() int { return len(d.jobs) }

func (d *serveRunner) close() error { return d.srv.Drain() }

// runJob submits job i as the one client and waits for its result. The
// latency of a job that is refused or fails is +Inf: beyond every percentile.
func (d *serveRunner) runJob(ph *phase, i int) {
	j := d.jobs[i]
	if j.spec.Kind == "campaign" {
		ph.c.campaigns++
		if d.warmed[j.warmKey] {
			ph.c.warmRepeats++
		}
		d.warmed[j.warmKey] = true
	}
	spec := j.spec
	spec.Tenant = "client"
	name := fmt.Sprintf("%s#%d", spec.Kind, j.id)
	tr := ph.tr
	t0 := time.Now()
	root := tr.begin("serve.job "+spec.Kind, name, 0)
	sp := tr.begin("serve.Server.Submit", name, root)
	job, _, err := d.srv.Submit(spec)
	tr.end(sp)
	if err == nil {
		sp = tr.begin("serve.Job.Done", name, root)
		<-job.Done()
		tr.end(sp)
	}
	tr.end(root)
	took := time.Since(t0)

	ph.jobs++
	switch {
	case err != nil:
		ph.c.rejected++
		err = fmt.Errorf("refused: %w", err)
	case job.Status() != serve.StateDone:
		ph.c.servFailed++
		err = fmt.Errorf("job %s: %s", job.Status(), job.View().Error)
	default:
		err = d.account(ph, j, job.Result(), took.Seconds())
	}
	if err != nil {
		ph.lat[spec.Kind] = append(ph.lat[spec.Kind], math.Inf(1))
		ph.fail(name, err)
		return
	}
	ph.lat[spec.Kind] = append(ph.lat[spec.Kind], float64(took.Nanoseconds())/1e6)
}

// account checks a finished job's outcome against the recorded one and
// records its simulated cycles (a campaign's counted from the warm-up fork)
// and counts.
func (d *serveRunner) account(ph *phase, j serveJob, doc json.RawMessage, secs float64) error {
	if j.spec.Kind == "campaign" {
		var r serve.CampaignResult
		if err := json.Unmarshal(doc, &r); err != nil {
			return err
		}
		if len(r.Points) != len(j.spec.Faults) {
			return fmt.Errorf("%d campaign points, want %d", len(r.Points), len(j.spec.Faults))
		}
		var words []uint64
		var cycles uint64
		for _, p := range r.Points {
			w := pointWord(p)
			if err := checkRecorded(pointKey(j.spec, p.Faults), w); err != nil {
				return err
			}
			words = append(words, w)
			cycles += p.Cycles - r.WarmupCycles
		}
		if err := ph.outs.check(j.id, fold(words...)); err != nil {
			return err
		}
		ph.done(j.id, cycles, secs)
		return nil
	}
	var r serve.TrafficResult
	if err := json.Unmarshal(doc, &r); err != nil {
		return err
	}
	dg, err := strconv.ParseUint(r.Digest, 16, 64)
	if err != nil {
		return err
	}
	ph.c.arrivals += uint64(r.Arrivals)
	ph.c.completed += uint64(r.Completed)
	ph.c.canceled += uint64(r.Canceled)
	w := trafficWord(r.Arrivals, r.Completed, r.Canceled, dg)
	if err := checkRecorded(trafficKey(j.spec), w); err != nil {
		return err
	}
	if err := ph.outs.check(j.id, w); err != nil {
		return err
	}
	ph.done(j.id, r.Cycles, secs)
	return nil
}

// wantDigest is the digest a correct run reproduces: the recorded outcomes
// folded over this seed's job list, which for the shipped seeds must also
// equal serveDigest.
func (d *serveRunner) wantDigest(seed uint64) (uint64, error) {
	table, err := serveOutcomes()
	if err != nil {
		return 0, err
	}
	want, err := expectedServeDigest(d.jobs, table)
	if err != nil {
		return 0, err
	}
	if shipped, ok := serveDigest[seed]; ok && shipped != want {
		return 0, fmt.Errorf("outcomes.json gives seed %d the digest %016x, recorded %016x", seed, want, shipped)
	}
	return want, nil
}

// replay reruns each traffic job of the list once through traffic.Build and
// Scenario.Run, built as the service builds it, to count the cycles
// skip-ahead elided: the service does not return them. The replay is
// deterministic, so its report digest must equal the service's and the
// count is exact. Campaign points skip nothing: their wired injector forces
// every-cycle ticking.
func (d *serveRunner) replay(ph *phase) error {
	for _, j := range d.jobs {
		runs := len(ph.jobSecs[j.id])
		if j.spec.Kind != "traffic" || runs == 0 {
			continue
		}
		skipped, ok := d.skips[j.id]
		if !ok {
			var err error
			if skipped, err = d.replayTraffic(ph, j); err != nil {
				return fmt.Errorf("traffic#%d replay: %w", j.id, err)
			}
			d.skips[j.id] = skipped
		}
		ph.c.skipped += skipped * uint64(runs)
	}
	return nil
}

func (d *serveRunner) replayTraffic(ph *phase, j serveJob) (uint64, error) {
	kind, err := serve.ParseArch(j.spec.Arch)
	if err != nil {
		return 0, err
	}
	spec, err := traffic.ParseSpec(j.spec.Traffic)
	if err != nil {
		return 0, err
	}
	spec.ApplyDefaults()
	cfg := occamy.DefaultConfig(kind)
	if j.spec.Seed != 0 {
		cfg.Seed = j.spec.Seed
	}
	name := fmt.Sprintf("replay traffic#%d", j.id)
	sp := ph.tr.begin("traffic.Build", name, 0)
	sc, err := traffic.Build(kind, spec, arch.Options{
		ExeBUs:      cfg.LanesPerCore / 4 * spec.Cores,
		Seed:        cfg.Seed,
		StallCycles: cfg.StallCycles,
	})
	ph.tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = ph.tr.begin("traffic.Scenario.Run", name, 0)
	err = sc.Run(sc.DefaultBudget())
	ph.tr.end(sp)
	if err != nil {
		return 0, err
	}
	ph.c.runCycles += sc.Sys.Engine.Cycle()
	rep := sc.BuildReport()
	if err := ph.outs.check(j.id, trafficWord(rep.Total.Arrivals, rep.Total.Completed, rep.Total.Canceled, rep.Digest)); err != nil {
		return 0, fmt.Errorf("replay is not the service's run: %w", err)
	}
	return sc.Sys.Engine.SkippedCycles(), nil
}
