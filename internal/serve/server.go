package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"occamy/internal/digest"
	"occamy/internal/telemetry"
)

// Options tunes a Server. Zero values take the documented defaults.
type Options struct {
	// Workers is the worker-pool size (default 2): the concurrency limit on
	// simulations, the service's primary resource bound.
	Workers int
	// QueueCap bounds admitted-but-not-running jobs (default 16). A full
	// queue rejects with 429 + Retry-After; the backlog never grows
	// without bound.
	QueueCap int
	// TenantQuota caps one tenant's in-flight jobs (default 4; <0 disables).
	TenantQuota int
	// MaxAttempts is the per-job attempt budget (default 3): transient
	// failures retry with exponential backoff until the budget is spent,
	// then the job fails permanently.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the retry schedule: delay n is
	// min(BackoffBase << (n-1), BackoffCap) plus deterministic jitter in
	// [0, delay/4). Defaults 100ms and 5s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// DefaultTimeout is the per-attempt deadline when the spec sets none
	// (default 120s).
	DefaultTimeout time.Duration
	// DrainGrace is how long Drain waits for in-flight work before killing
	// and parking it (default 10s).
	DrainGrace time.Duration
	// CacheCap bounds the warm-up checkpoint cache (default 8 snapshots).
	CacheCap int
	// JournalPath, when non-empty, makes accepted jobs durable: they are
	// journaled before the 202 and replayed on the next start if the
	// process dies (or drains) before finishing them.
	JournalPath string
	// Clock injects time; nil uses the real clock.
	Clock Clock
	// AllowInjection enables the test-only fault hooks (JobSpec.Inject and
	// POST /inject/corrupt-cache). Never enable in production.
	AllowInjection bool
	// Stats receives the service metrics; nil allocates a private set.
	Stats *telemetry.ServiceStats
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.QueueCap <= 0 {
		out.QueueCap = 16
	}
	if out.TenantQuota == 0 {
		out.TenantQuota = 4
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 3
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = 100 * time.Millisecond
	}
	if out.BackoffCap <= 0 {
		out.BackoffCap = 5 * time.Second
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 120 * time.Second
	}
	if out.DrainGrace <= 0 {
		out.DrainGrace = 10 * time.Second
	}
	if out.CacheCap <= 0 {
		out.CacheCap = 8
	}
	if out.Clock == nil {
		out.Clock = RealClock()
	}
	if out.Stats == nil {
		out.Stats = &telemetry.ServiceStats{}
	}
	return out
}

// Server is the job service: admission control in front of a bounded queue,
// a fixed worker pool executing attempts with timeouts and retry/backoff, a
// content-addressed checkpoint cache, and a drain path that parks what it
// cannot finish.
type Server struct {
	opts    Options
	stats   *telemetry.ServiceStats
	cache   *Cache
	runner  *runner
	journal *Journal
	clock   Clock

	queue    chan *Job
	hardStop chan struct{} // closed when the drain grace expires
	wg       sync.WaitGroup

	mu       sync.Mutex
	draining bool
	nextID   int
	jobs     map[string]*Job
	byKey    map[uint64]*Job // in-flight only: the singleflight dedup index
	inFlight map[string]int  // per-tenant queued+running+retrying count
	order    []string        // job IDs in admission order, for GET /jobs
}

// New builds and starts a Server: workers are running and, when a journal is
// configured, accepted-but-unfinished jobs from the previous process are
// replayed before new submissions are taken.
func New(o Options) (*Server, error) {
	opts := o.withDefaults()
	s := &Server{
		opts:     opts,
		stats:    opts.Stats,
		clock:    opts.Clock,
		queue:    make(chan *Job, opts.QueueCap),
		hardStop: make(chan struct{}),
		jobs:     make(map[string]*Job),
		byKey:    make(map[uint64]*Job),
		inFlight: make(map[string]int),
	}
	s.cache = NewCache(opts.CacheCap, s.stats)
	s.runner = &runner{cache: s.cache}

	var replay []Replay
	if opts.JournalPath != "" {
		j, pending, err := OpenJournal(opts.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("serve: journal: %w", err)
		}
		s.journal = j
		replay = pending
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Replayed jobs were journaled by a previous process; re-admit them
	// under their journal IDs without re-journaling, so their end records
	// close the accept records a restart would otherwise replay again. They
	// bypass quota (they were already accepted once) but still occupy quota
	// slots while in flight. A spec passes Submit's checks again first: one
	// this server refuses (the journal is a file, written by an older build,
	// another configuration or an editor) must fail durably here, never
	// panic a worker on every restart.
	for _, r := range replay {
		job := s.register(r.ID, r.Spec)
		s.stats.Replayed()
		err := r.Spec.Validate()
		if err == nil && r.Spec.Inject != "" && !s.opts.AllowInjection {
			err = errInjectionDisabled
		}
		if err != nil {
			job.fail(fmt.Sprintf("invalid journaled spec: %v", err), "")
			s.stats.DoneFailed()
			s.journal.End(job.ID, StateFailed)
			s.release(job)
			continue
		}
		s.stats.QueueAdd(1)
		s.queue <- job
	}
	return s, nil
}

// errInjectionDisabled refuses a spec with an injection hook on a server
// built without Options.AllowInjection.
var errInjectionDisabled = errors.New("injection hooks are disabled")

// register indexes a replayed job as in-flight under its journal ID, and
// keeps new IDs clear of it. Caller must not hold s.mu.
func (s *Server) register(id string, spec JobSpec) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
	job := newJob(id, spec)
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.byKey[job.Key] = job
	s.inFlight[spec.Tenant]++
	s.stats.SetTenants(int64(len(s.inFlight)))
	return job
}

// release drops a job from the in-flight indexes once it reaches a terminal
// state.
func (s *Server) release(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byKey[job.Key] == job {
		delete(s.byKey, job.Key)
	}
	t := job.Spec.Tenant
	if s.inFlight[t]--; s.inFlight[t] <= 0 {
		delete(s.inFlight, t)
	}
	s.stats.SetTenants(int64(len(s.inFlight)))
}

// SubmitError carries an HTTP status for a refused submission.
type SubmitError struct {
	Status     int
	RetryAfter int // seconds; 0 omits the header
	Msg        string
}

func (e *SubmitError) Error() string { return e.Msg }

// Submit admits a job (or coalesces it onto an identical in-flight one).
// Returns the job and whether it was deduplicated.
func (s *Server) Submit(spec JobSpec) (*Job, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, &SubmitError{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	if spec.Inject != "" && !s.opts.AllowInjection {
		return nil, false, &SubmitError{Status: http.StatusForbidden, Msg: errInjectionDisabled.Error()}
	}
	key := spec.Key()

	// The whole admission decision — draining check, dedup, quota, queue
	// reservation — is one critical section: the non-blocking queue send
	// must not race Drain's close(s.queue), and a deduplicated submission
	// must never land on a job that admission is about to drop.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.stats.RejectedDraining()
		return nil, false, &SubmitError{Status: http.StatusServiceUnavailable, Msg: "draining"}
	}
	if dup, ok := s.byKey[key]; ok && dup.InFlight() {
		s.mu.Unlock()
		s.stats.Deduped()
		return dup, true, nil
	}
	if q := s.opts.TenantQuota; q > 0 && s.inFlight[spec.Tenant] >= q {
		s.mu.Unlock()
		s.stats.RejectedQuota()
		return nil, false, &SubmitError{
			Status: http.StatusTooManyRequests, RetryAfter: 1,
			Msg: fmt.Sprintf("tenant %q at its in-flight quota (%d)", spec.Tenant, q),
		}
	}
	// All queue sends happen under s.mu, so len(s.queue) can only shrink
	// concurrently (workers receiving) and this capacity check makes the
	// send below non-blocking.
	if len(s.queue) >= s.opts.QueueCap {
		s.mu.Unlock()
		s.stats.RejectedFull()
		return nil, false, &SubmitError{
			Status: http.StatusTooManyRequests, RetryAfter: 2,
			Msg: fmt.Sprintf("queue full (%d jobs)", s.opts.QueueCap),
		}
	}
	s.nextID++
	job := newJob(fmt.Sprintf("job-%d", s.nextID), spec)
	// Journal before the job becomes runnable: once a worker can see it, it
	// can finish it, and an "end" record must never precede its "accept".
	// The fsync under the lock is the price of the 202 being a durable
	// promise.
	if err := s.journal.Accept(job.ID, spec); err != nil {
		s.nextID--
		s.mu.Unlock()
		return nil, false, &SubmitError{
			Status: http.StatusInternalServerError,
			Msg:    fmt.Sprintf("journal accept failed: %v", err),
		}
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.byKey[job.Key] = job
	s.inFlight[spec.Tenant]++
	s.stats.SetTenants(int64(len(s.inFlight)))
	s.stats.QueueAdd(1)
	s.queue <- job
	s.mu.Unlock()
	s.stats.Admitted()
	return job, false, nil
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all jobs in admission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Stats exposes the service metrics (for tests and embedding).
func (s *Server) Stats() *telemetry.ServiceStats { return s.stats }

// Cache exposes the checkpoint cache (for tests and the injection hook).
func (s *Server) Cache() *Cache { return s.cache }

// worker drains the queue, running each job's full attempt loop in place: a
// retrying job keeps its worker slot through the backoff sleep, so Workers
// bounds simulations and retries together.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.stats.QueueAdd(-1)
		select {
		case <-s.hardStop:
			// Hard drain: accepted but never started. Park it; the journal
			// has its accept record, so a restart replays it.
			s.parkJob(job, "drained before start")
			continue
		default:
		}
		s.runJob(job)
	}
}

// parkJob marks a job parked (no journal end record: the journal replays it).
func (s *Server) parkJob(job *Job, msg string) {
	job.park(msg)
	s.stats.Parked()
	s.release(job)
}

// backoffDelay is attempt n's retry delay: exponential with a deterministic
// jitter derived from (job key, attempt), so tests with an injected clock can
// assert the exact schedule.
func (s *Server) backoffDelay(key uint64, attempt int) time.Duration {
	d := s.opts.BackoffBase << uint(attempt-1)
	if d > s.opts.BackoffCap || d <= 0 {
		d = s.opts.BackoffCap
	}
	h := digest.NewFNV()
	h.U64(key, uint64(attempt))
	jitter := time.Duration(h.Sum() % uint64(d/4+1))
	return d + jitter
}

// runJob executes the attempt loop: run, classify, back off, retry, until
// success, a permanent failure, the attempt budget, or a drain kill.
func (s *Server) runJob(job *Job) {
	s.stats.RunningAdd(1)
	defer s.stats.RunningAdd(-1)
	for attempt := 1; ; attempt++ {
		job.startAttempt(attempt)
		doc, cacheHit, drained, aerr := s.runAttempt(job, attempt)
		if drained {
			s.parkJob(job, "drained mid-run")
			return
		}
		if aerr == nil {
			job.finish(doc, cacheHit)
			s.stats.DoneOK()
			s.journal.End(job.ID, StateDone)
			s.release(job)
			return
		}
		if aerr.timeout {
			s.stats.TimedOut()
		}
		if aerr.stall {
			s.stats.Stalled()
		}
		if !aerr.transient || attempt >= s.opts.MaxAttempts {
			reason := aerr.Error()
			if aerr.transient {
				reason = fmt.Sprintf("attempt budget exhausted (%d attempts): %s", attempt, reason)
			}
			job.fail(reason, aerr.diag)
			s.stats.DoneFailed()
			s.journal.End(job.ID, StateFailed)
			s.release(job)
			return
		}
		delay := s.backoffDelay(job.Key, attempt)
		job.setRetrying(delay.Milliseconds())
		s.stats.Retried()
		select {
		case <-s.clock.After(delay):
		case <-s.hardStop:
			s.parkJob(job, "drained during retry backoff")
			return
		}
	}
}

// runAttempt executes one attempt with its deadline. drained reports that the
// attempt was killed by the drain hard-stop rather than its own deadline.
func (s *Server) runAttempt(job *Job, attempt int) (doc json.RawMessage, cacheHit, drained bool, aerr *attemptError) {
	timeout := s.opts.DefaultTimeout
	if job.Spec.TimeoutMS > 0 {
		timeout = time.Duration(job.Spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var timedOut, stopped bool
	var mu sync.Mutex
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-s.clock.After(timeout):
			mu.Lock()
			timedOut = true
			mu.Unlock()
			cancel()
		case <-s.hardStop:
			mu.Lock()
			stopped = true
			mu.Unlock()
			cancel()
		case <-watchDone:
		}
	}()

	var err error
	if inj, n, ok := parseInject(job.Spec.Inject); ok && s.opts.AllowInjection && inj == "timeout" && (n == 0 || attempt <= n) {
		// Forced hang: the attempt blocks until something kills it, which
		// exercises the timeout/retry path deterministically.
		<-ctx.Done()
		err = fmt.Errorf("serve: injected hang killed: %w", context.Cause(ctx))
		mu.Lock()
		to := timedOut
		st := stopped
		mu.Unlock()
		if st {
			return nil, false, true, nil
		}
		return nil, false, false, &attemptError{err: err, transient: true, timeout: to}
	}

	doc, cacheHit, err = s.runner.run(ctx, &job.Spec)
	mu.Lock()
	to := timedOut
	st := stopped
	mu.Unlock()
	if err == nil {
		return doc, cacheHit, false, nil
	}
	if st {
		return nil, false, true, nil
	}
	return nil, false, false, classify(err, to)
}

// parseInject splits "timeout" / "timeout:N" into (hook, N, ok).
func parseInject(s string) (string, int, bool) {
	if s == "" {
		return "", 0, false
	}
	name, arg, found := strings.Cut(s, ":")
	n := 0
	if found {
		fmt.Sscanf(arg, "%d", &n)
	}
	return name, n, true
}

// Drain gracefully shuts the service down: stop admitting, let in-flight
// work finish for the grace period, then kill and park what remains, flush
// the journal, and return. After Drain the server accepts nothing.
func (s *Server) Drain() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("serve: already draining")
	}
	s.draining = true
	s.mu.Unlock()
	s.stats.SetDraining(true)

	close(s.queue) // workers finish the backlog then exit
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-s.clock.After(s.opts.DrainGrace):
		close(s.hardStop) // kill running attempts; workers park the rest
		<-done
	}
	return s.journal.Close()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.opts.AllowInjection {
		mux.HandleFunc("POST /inject/corrupt-cache", s.handleCorruptCache)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type submitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Dedup  bool   `json:"deduplicated,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	job, dedup, err := s.Submit(spec)
	if err != nil {
		var serr *SubmitError
		if errors.As(err, &serr) {
			if serr.RetryAfter > 0 {
				w.Header().Set("Retry-After", fmt.Sprint(serr.RetryAfter))
			}
			writeJSON(w, serr.Status, map[string]string{"error": serr.Msg})
			return
		}
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	status := http.StatusAccepted
	if dedup {
		status = http.StatusOK
	}
	writeJSON(w, status, submitResponse{ID: job.ID, Status: job.Status(), Dedup: dedup})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	sort.SliceStable(views, func(a, b int) bool { return views[a].ID < views[b].ID })
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	switch job.Status() {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(job.Result())
	case StateFailed, StateParked:
		writeJSON(w, http.StatusConflict, job.View())
	default:
		writeJSON(w, http.StatusAccepted, job.View())
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	s.stats.WriteOpenMetrics(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleCorruptCache(w http.ResponseWriter, r *http.Request) {
	n := s.cache.TamperAll()
	writeJSON(w, http.StatusOK, map[string]int{"tampered": n})
}
