package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"occamy"
	"occamy/internal/arch"
	"occamy/internal/fault"
	"occamy/internal/sim"
	"occamy/internal/workload"
)

// defaultStall arms the forward-progress watchdog on every service run, so a
// livelocked simulation is diagnosed and retried instead of burning its whole
// cycle budget.
const defaultStall = 2_000_000

// attemptError classifies one failed attempt.
type attemptError struct {
	err       error
	transient bool   // retry-worthy: timeout, stall
	timeout   bool   // the attempt hit its deadline
	stall     bool   // the watchdog fired
	diag      string // rendered diagnostic dump, when the engine produced one
}

func (a *attemptError) Error() string { return a.err.Error() }

// classify splits a run error into transient (timeout, watchdog stall —
// killed runs worth retrying) and permanent (budget exhaustion, verification
// failure, build errors) and extracts the diagnostic dump.
func classify(err error, timedOut bool) *attemptError {
	ae := &attemptError{err: err, timeout: timedOut}
	var derr *arch.DiagError
	if errors.As(err, &derr) && derr.Dump != nil {
		ae.diag = derr.Dump.String()
	}
	var cerr *sim.CanceledError
	if errors.As(err, &cerr) && timedOut {
		ae.transient = true
		return ae
	}
	var serr *sim.StallError
	if errors.As(err, &serr) {
		ae.transient, ae.stall = true, true
		return ae
	}
	return ae
}

// PairResult is the result document of a "pair" job.
type PairResult struct {
	Arch        string   `json:"arch"`
	Schedule    string   `json:"schedule"`
	Cycles      uint64   `json:"cycles"`
	Utilization float64  `json:"utilization"`
	CoreCycles  []uint64 `json:"core_cycles"`
	Elems       uint64   `json:"elems"`
	Recoveries  int      `json:"recoveries,omitempty"`
}

// CampaignPoint is one fault point of a "campaign" job.
type CampaignPoint struct {
	Faults     string `json:"faults"`
	Cycles     uint64 `json:"cycles"`
	Elems      uint64 `json:"elems"`
	Recoveries int    `json:"recoveries"`
	TTRp50     uint64 `json:"ttr_p50,omitempty"`
}

// CampaignResult is the result document of a "campaign" job.
type CampaignResult struct {
	Arch         string          `json:"arch"`
	Workloads    []string        `json:"workloads"`
	WarmupCycles uint64          `json:"warmup_cycles"`
	WarmKey      string          `json:"warm_key"`
	CacheHit     bool            `json:"cache_hit"`
	Points       []CampaignPoint `json:"points"`
}

// TrafficResult is the result document of a "traffic" job.
type TrafficResult struct {
	Arch       string `json:"arch"`
	Cycles     uint64 `json:"cycles"`
	Arrivals   int    `json:"arrivals"`
	Admitted   int    `json:"admitted"`
	Completed  int    `json:"completed"`
	Canceled   int    `json:"canceled"`
	SojournP50 uint64 `json:"sojourn_p50"`
	SojournP99 uint64 `json:"sojourn_p99"`
	Digest     string `json:"digest"`
}

// runner executes job attempts against the simulator.
type runner struct {
	cache *Cache
}

// run executes one attempt of spec under ctx. timedOut tells the classifier
// whether a cancellation was this attempt's deadline (as opposed to a drain
// kill, which the caller handles before classification). Returns the result
// document and whether the warm-up checkpoint cache was hit.
func (r *runner) run(ctx context.Context, spec *JobSpec) (json.RawMessage, bool, error) {
	switch spec.Kind {
	case "pair":
		doc, err := r.runPair(ctx, spec)
		return doc, false, err
	case "campaign":
		return r.runCampaign(ctx, spec)
	case "traffic":
		doc, err := r.runTraffic(ctx, spec)
		return doc, false, err
	}
	return nil, false, fmt.Errorf("serve: unknown kind %q", spec.Kind)
}

// baseConfig maps the spec onto the public run configuration.
func baseConfig(spec *JobSpec) (occamy.Config, error) {
	a, err := ParseArch(spec.Arch)
	if err != nil {
		return occamy.Config{}, err
	}
	cfg := occamy.DefaultConfig(a)
	cfg.Verify = spec.Verify
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	if spec.Scale != 0 {
		cfg.Scale = spec.Scale
	}
	if spec.LanesPerCore != 0 {
		cfg.LanesPerCore = spec.LanesPerCore
	}
	if spec.MaxCycles != 0 {
		cfg.MaxCycles = spec.MaxCycles
	}
	cfg.Machine = spec.Machine
	cfg.Topology = spec.Topology
	cfg.StallCycles = defaultStall
	return cfg, nil
}

func (r *runner) runPair(ctx context.Context, spec *JobSpec) (json.RawMessage, error) {
	cfg, err := baseConfig(spec)
	if err != nil {
		return nil, err
	}
	if len(spec.Faults) == 1 {
		cfg.Faults = spec.Faults[0]
	}
	rep, err := occamy.RunContext(ctx, cfg, occamy.ScheduleByNames(spec.Workloads...))
	if err != nil {
		return nil, err
	}
	out := PairResult{
		Arch:        rep.Arch.String(),
		Schedule:    rep.Schedule,
		Cycles:      rep.Cycles,
		Utilization: rep.Utilization,
		Elems:       rep.Elems,
		Recoveries:  len(rep.Recoveries),
	}
	for _, c := range rep.Cores {
		out.CoreCycles = append(out.CoreCycles, c.Cycles)
	}
	return json.Marshal(out)
}

func (r *runner) runTraffic(ctx context.Context, spec *JobSpec) (json.RawMessage, error) {
	cfg, err := baseConfig(spec)
	if err != nil {
		return nil, err
	}
	cfg.Traffic = spec.Traffic
	cfg.MaxCycles = spec.MaxCycles // 0 keeps the scenario's default budget
	rep, err := occamy.RunTrafficContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(TrafficResult{
		Arch:       rep.Arch,
		Cycles:     rep.Cycles,
		Arrivals:   rep.Total.Arrivals,
		Admitted:   rep.Total.Admitted,
		Completed:  rep.Total.Completed,
		Canceled:   rep.Total.Canceled,
		SojournP50: rep.Total.SojournP50,
		SojournP99: rep.Total.SojournP99,
		Digest:     fmt.Sprintf("%016x", rep.Digest),
	})
}

// campaignOptions builds the arch.Options a campaign system uses — the
// injector is always wired so checkpoints taken here fork into any fault
// schedule, and the build is a pure function of the spec's warm prefix (the
// cache-correctness requirement: a cached snapshot only restores onto an
// identically built system).
func campaignOptions(spec *JobSpec) (arch.Kind, workload.CoSchedule, arch.Options, error) {
	a, err := ParseArch(spec.Arch)
	if err != nil {
		return 0, workload.CoSchedule{}, arch.Options{}, err
	}
	reg := workload.NewRegistry()
	s := workload.CoSchedule{Name: strings.Join(spec.Workloads, "+")}
	for _, n := range spec.Workloads {
		s.W = append(s.W, reg.Workload(n))
	}
	if spec.Scale > 0 && spec.Scale != 1.0 {
		s = s.Scaled(spec.Scale)
	}
	lanes := spec.LanesPerCore
	if lanes <= 0 {
		lanes = 16
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	opts := arch.Options{
		ExeBUs:       lanes / 4 * s.Cores(),
		Seed:         seed,
		Machine:      spec.Machine,
		Topology:     spec.Topology,
		WireInjector: true,
		StallCycles:  defaultStall,
	}
	return a, s, opts, nil
}

// warmup returns the spec's warm-up cycle count.
func warmup(spec *JobSpec) uint64 {
	if spec.WarmupCycles != 0 {
		return spec.WarmupCycles
	}
	return 2000
}

// runCampaign is the checkpoint-cache path: warm one system up to the fork
// point (or restore the cached snapshot of that exact machine state), then
// fork every fault point from it. A cached snapshot that fails its digest
// check is evicted and the warm-up re-run cold — corruption costs time,
// never correctness.
func (r *runner) runCampaign(ctx context.Context, spec *JobSpec) (json.RawMessage, bool, error) {
	kind, sched, opts, err := campaignOptions(spec)
	if err != nil {
		return nil, false, err
	}
	warm := warmup(spec)
	sys, err := arch.Build(kind, sched, opts)
	if err != nil {
		return nil, false, err
	}
	sys.SetInterrupt(ctx.Done())

	key := spec.WarmKey()
	snap, hit, err := r.cache.GetOrFill(key, func() (*arch.SystemState, error) {
		if err := sys.RunTo(warm); err != nil {
			return nil, err
		}
		return sys.Checkpoint(), nil
	})
	if err != nil {
		return nil, false, err
	}
	if hit {
		if rerr := sys.RestoreCheckpoint(snap); rerr != nil {
			var cerr *arch.CorruptCheckpointError
			if !errors.As(rerr, &cerr) {
				return nil, false, rerr
			}
			// Corrupted entry: evict, fall back to a cold warm-up on the
			// untouched freshly built system, and repopulate the cache.
			if r.cache.stats != nil {
				r.cache.stats.CacheCorrupt()
			}
			r.cache.Evict(key)
			hit = false
			if err := sys.RunTo(warm); err != nil {
				return nil, false, err
			}
			snap = sys.Checkpoint()
			r.cache.Put(key, snap)
		}
	}

	maxCycles := spec.MaxCycles
	if maxCycles == 0 {
		maxCycles = 200_000_000
	}
	out := CampaignResult{
		Arch:         kind.String(),
		Workloads:    spec.Workloads,
		WarmupCycles: warm,
		WarmKey:      fmt.Sprintf("%016x", key),
		CacheHit:     hit,
	}
	for _, fs := range spec.Faults {
		var faults []fault.Fault
		if strings.TrimSpace(fs) != "" {
			faults, err = fault.ParseSpec(fs)
			if err != nil {
				return nil, hit, err
			}
		}
		if err := sys.RestoreCheckpoint(snap); err != nil {
			return nil, hit, err
		}
		sys.SetFaultSchedule(faults)
		res, err := sys.Run(maxCycles)
		if err != nil {
			return nil, hit, err
		}
		if spec.Verify {
			if err := sys.CheckResults(2e-3); err != nil {
				return nil, hit, fmt.Errorf("serve: campaign point %q verification: %w", fs, err)
			}
		}
		pt := CampaignPoint{Faults: fs, Cycles: res.Cycles, Elems: res.Elems, Recoveries: len(res.Recoveries)}
		var ttrs []uint64
		for _, rec := range res.Recoveries {
			if !rec.Pending {
				ttrs = append(ttrs, rec.TimeToRepartition())
			}
		}
		_, pt.TTRp50, _, _ = arch.TTRStats(ttrs)
		out.Points = append(out.Points, pt)
	}
	doc, err := json.Marshal(out)
	return doc, hit, err
}
