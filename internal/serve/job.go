package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	occamy "occamy"
	"occamy/internal/digest"
	"occamy/internal/fault"
	"occamy/internal/traffic"
	"occamy/internal/workload"
)

// JobSpec is the request body of POST /jobs: one simulation job. The
// zero-valued optional fields take the service defaults, so the minimal
// submission is {"tenant":"t","kind":"pair","arch":"occamy",
// "workloads":["spec/WL20","spec/WL17"]}.
type JobSpec struct {
	// Tenant identifies the submitter for quota accounting.
	Tenant string `json:"tenant"`
	// Kind selects the job type: "pair" (co-schedule run), "traffic"
	// (open-loop arrival process) or "campaign" (fault sweep forked from a
	// shared warm-up checkpoint; the kind the checkpoint cache serves).
	Kind string `json:"kind"`
	// Arch names the sharing architecture: private|temporal|static|elastic
	// (the paper's aliases fts/vls/occamy are accepted).
	Arch string `json:"arch"`
	// Workloads are Table 3 names, one per core (pair and campaign kinds).
	Workloads []string `json:"workloads,omitempty"`
	// Traffic is the arrival-process spec for kind "traffic"
	// (e.g. "poisson:load=2,tenants=4").
	Traffic string `json:"traffic,omitempty"`
	// Faults: for "pair", a single fault-injection spec applied to the run;
	// for "campaign", one spec per campaign point ("" = fault-free point).
	Faults []string `json:"faults,omitempty"`
	// Seed, Scale, LanesPerCore tune the build (zero = defaults).
	Seed         uint64  `json:"seed,omitempty"`
	Scale        float64 `json:"scale,omitempty"`
	LanesPerCore int     `json:"lanes_per_core,omitempty"`
	// Machine and Topology override hardware parameters; both participate
	// in the checkpoint-cache key (a warm-up is only reusable on an
	// identically built machine).
	Machine  *occamy.MachineTuning `json:"machine,omitempty"`
	Topology *occamy.Topology      `json:"topology,omitempty"`
	// WarmupCycles is the campaign warm-up length (cycles before the first
	// fault point forks; default 2000).
	WarmupCycles uint64 `json:"warmup_cycles,omitempty"`
	// MaxCycles bounds each run (zero = generous default).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// TimeoutMS is the per-attempt wall-clock budget (zero = service
	// default). A timed-out attempt is killed, diagnosed and retried.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Verify re-executes results on the host after simulation.
	Verify bool `json:"verify,omitempty"`
	// Inject is a test-only fault hook, refused unless the server runs with
	// AllowInjection: "timeout" hangs every attempt until its deadline;
	// "timeout:N" hangs only the first N attempts (so attempt N+1 runs for
	// real and the retry path is observable end to end).
	Inject string `json:"inject,omitempty"`
}

// knownWorkloads is the Table 3 name set, for validation without panics.
var knownWorkloads = func() map[string]bool {
	m := map[string]bool{}
	for _, n := range workload.NewRegistry().WorkloadNames() {
		m[n] = true
	}
	return m
}()

// ParseArch resolves the accepted architecture aliases.
func ParseArch(s string) (occamy.Arch, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "private":
		return occamy.Private, nil
	case "temporal", "fts":
		return occamy.Temporal, nil
	case "static", "staticspatial", "vls":
		return occamy.StaticSpatial, nil
	case "elastic", "occamy":
		return occamy.Elastic, nil
	}
	return 0, fmt.Errorf("unknown architecture %q (want private|temporal|static|elastic)", s)
}

// Validate checks the spec shape so admission rejects malformed jobs with a
// 400 instead of failing them later on a worker.
func (j *JobSpec) Validate() error {
	if j.Tenant == "" {
		return fmt.Errorf("tenant is required")
	}
	if _, err := ParseArch(j.Arch); err != nil {
		return err
	}
	if j.Scale < 0 {
		return fmt.Errorf("negative scale %g", j.Scale)
	}
	if j.LanesPerCore < 0 || j.LanesPerCore%4 != 0 {
		return fmt.Errorf("lanes_per_core must be a non-negative multiple of 4, got %d", j.LanesPerCore)
	}
	if j.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms %d", j.TimeoutMS)
	}
	cores := len(j.Workloads)
	switch j.Kind {
	case "pair":
		if len(j.Workloads) == 0 {
			return fmt.Errorf("pair job needs workloads")
		}
		if len(j.Faults) > 1 {
			return fmt.Errorf("pair job takes at most one fault spec (got %d); use a campaign for sweeps", len(j.Faults))
		}
	case "campaign":
		if len(j.Workloads) == 0 {
			return fmt.Errorf("campaign job needs workloads")
		}
		if len(j.Faults) == 0 {
			return fmt.Errorf("campaign job needs at least one fault point (\"\" for the fault-free point)")
		}
	case "traffic":
		if j.Traffic == "" {
			return fmt.Errorf("traffic job needs a traffic spec")
		}
		spec, err := traffic.ParseSpec(j.Traffic)
		if err != nil {
			return err
		}
		spec.ApplyDefaults()
		cores = spec.Cores
	default:
		return fmt.Errorf("unknown kind %q (want pair|traffic|campaign)", j.Kind)
	}
	for _, w := range j.Workloads {
		if !knownWorkloads[w] {
			return fmt.Errorf("unknown workload %q", w)
		}
	}
	for _, f := range j.Faults {
		if strings.TrimSpace(f) == "" {
			continue
		}
		if _, err := fault.ParseSpec(f); err != nil {
			return err
		}
	}
	if j.Machine != nil {
		if err := j.Machine.Validate(); err != nil {
			return err
		}
	}
	if j.Topology != nil {
		lanes := j.LanesPerCore
		if lanes == 0 {
			lanes = 16 // the Table 4 default the runner builds with
		}
		if err := j.Topology.Validate(cores, lanes/4*cores); err != nil {
			return err
		}
	}
	return nil
}

// fnvJSON hashes v's canonical JSON encoding (Go marshals struct fields in
// declaration order, so the encoding is deterministic) with FNV-64a.
func fnvJSON(v any) uint64 {
	b, err := json.Marshal(v)
	if err != nil {
		// Specs are plain data; a marshal failure is a programming error.
		panic(fmt.Sprintf("serve: marshal key: %v", err))
	}
	h := digest.NewFNV()
	h.Bytes(b)
	return h.Sum()
}

// Key is the job's dedup identity: the full spec, tenant included. Two
// submissions with equal keys are the same request; while the first is in
// flight the second coalesces onto it (singleflight).
func (j *JobSpec) Key() uint64 { return fnvJSON(j) }

// warmPrefix is the checkpoint-cache identity: everything that shapes the
// machine and its state at the warm-up boundary — and nothing that only
// matters after the fork (fault points, timeout, verify, tenant).
type warmPrefix struct {
	Arch      string
	Workloads []string
	Seed      uint64
	Scale     float64
	Lanes     int
	Machine   *occamy.MachineTuning
	Topology  *occamy.Topology
	Warmup    uint64
}

// WarmKey is the content-address of the job's warm-up checkpoint.
func (j *JobSpec) WarmKey() uint64 {
	return fnvJSON(warmPrefix{
		Arch:      strings.ToLower(j.Arch),
		Workloads: j.Workloads,
		Seed:      j.Seed,
		Scale:     j.Scale,
		Lanes:     j.LanesPerCore,
		Machine:   j.Machine,
		Topology:  j.Topology,
		Warmup:    j.WarmupCycles,
	})
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateRetrying = "retrying"
	StateDone     = "done"
	StateFailed   = "failed"
	StateParked   = "parked" // drain interrupted it; the journal replays it
)

// Job is one admitted submission and its full lifecycle.
type Job struct {
	ID   string
	Key  uint64
	Spec JobSpec

	mu            sync.Mutex
	status        string
	attempt       int
	retryDelaysMS []int64
	errMsg        string
	diag          string // diagnostic dump of the last killed attempt
	result        json.RawMessage
	cacheHit      bool
	done          chan struct{} // closed on done/failed/parked
}

func newJob(id string, spec JobSpec) *Job {
	return &Job{ID: id, Key: spec.Key(), Spec: spec, status: StateQueued, done: make(chan struct{})}
}

// Done is closed when the job reaches a terminal state (done, failed or
// parked); Status then tells which.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) setState(s string) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

func (j *Job) startAttempt(n int) {
	j.mu.Lock()
	j.status = StateRunning
	j.attempt = n
	j.mu.Unlock()
}

func (j *Job) setRetrying(delayMS int64) {
	j.mu.Lock()
	j.status = StateRetrying
	j.retryDelaysMS = append(j.retryDelaysMS, delayMS)
	j.mu.Unlock()
}

func (j *Job) finish(result json.RawMessage, cacheHit bool) {
	j.mu.Lock()
	j.status = StateDone
	j.result = result
	j.cacheHit = cacheHit
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) fail(msg, diag string) {
	j.mu.Lock()
	j.status = StateFailed
	j.errMsg = msg
	j.diag = diag
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) park(msg string) {
	j.mu.Lock()
	j.status = StateParked
	j.errMsg = msg
	j.mu.Unlock()
	close(j.done)
}

// JobView is the status document GET /jobs/{id} serves.
type JobView struct {
	ID            string  `json:"id"`
	Key           string  `json:"key"`
	Tenant        string  `json:"tenant"`
	Kind          string  `json:"kind"`
	Status        string  `json:"status"`
	Attempt       int     `json:"attempt"`
	RetryDelaysMS []int64 `json:"retry_delays_ms,omitempty"`
	Error         string  `json:"error,omitempty"`
	Diagnostic    string  `json:"diagnostic,omitempty"`
	CacheHit      bool    `json:"cache_hit,omitempty"`
	HasResult     bool    `json:"has_result"`
}

// View snapshots the job's current state.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:            j.ID,
		Key:           fmt.Sprintf("%016x", j.Key),
		Tenant:        j.Spec.Tenant,
		Kind:          j.Spec.Kind,
		Status:        j.status,
		Attempt:       j.attempt,
		RetryDelaysMS: append([]int64(nil), j.retryDelaysMS...),
		Error:         j.errMsg,
		Diagnostic:    j.diag,
		CacheHit:      j.cacheHit,
		HasResult:     j.result != nil,
	}
}

// Result returns the job's result document, nil until done.
func (j *Job) Result() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Status returns the job's current state string.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// InFlight reports whether the job still occupies queue/quota accounting.
func (j *Job) InFlight() bool {
	switch j.Status() {
	case StateDone, StateFailed, StateParked:
		return false
	}
	return true
}
