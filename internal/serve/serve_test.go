package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"occamy"
	"occamy/internal/telemetry"
)

// fakeClock is a manual clock: After registers a waiter, Advance moves time
// and fires every waiter that came due. pendingAtLeast lets tests rendezvous
// with the service's timer registrations before advancing, which makes the
// timeout and backoff schedules fully deterministic.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var keep []fakeWaiter
	var fire []fakeWaiter
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	c.waiters = keep
	now := c.now
	c.mu.Unlock()
	for _, w := range fire {
		w.ch <- now
	}
}

// pendingAtLeast blocks until at least n waiters are registered (with a real
// wall-clock timeout so a hung test fails instead of deadlocking).
func (c *fakeClock) pendingAtLeast(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		got := len(c.waiters)
		c.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d clock waiters", n)
}

// pairSpec is a quick two-core job.
func pairSpec(tenant string, seed uint64) JobSpec {
	return JobSpec{
		Tenant:    tenant,
		Kind:      "pair",
		Arch:      "elastic",
		Workloads: []string{"spec/WL20", "spec/WL17"},
		Scale:     0.05,
		Seed:      seed,
	}
}

// campaignSpec is a quick two-point fault campaign.
func campaignSpec(tenant string) JobSpec {
	return JobSpec{
		Tenant:       tenant,
		Kind:         "campaign",
		Arch:         "elastic",
		Workloads:    []string{"spec/WL20", "spec/WL17"},
		Scale:        0.05,
		Seed:         3,
		WarmupCycles: 1500,
		Faults:       []string{"", "exebu:1@2000"},
	}
}

// hangSpec is an injected-hang job: it occupies a worker until killed.
func hangSpec(tenant string, seed uint64) JobSpec {
	s := pairSpec(tenant, seed)
	s.Inject = "timeout"
	return s
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (*http.Response, submitResponse) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResponse
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

// waitTerminal polls the HTTP status endpoint until the job leaves the
// in-flight states.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		if code := getJSON(t, ts, "/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		switch v.Status {
		case StateDone, StateFailed, StateParked:
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobView{}
}

// waitRunning polls until the job is running on a worker.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := s.Job(id); ok && j.Status() == StateRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

func newTestServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestSubmitPollResult is the happy path over HTTP: submit a pair and a
// traffic job, poll to done, fetch the results, and check the metrics
// endpoint validates as OpenMetrics.
func TestSubmitPollResult(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	defer s.Drain()

	resp, sub := postJob(t, ts, pairSpec("t1", 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	tSpec := JobSpec{
		Tenant: "t1", Kind: "traffic", Arch: "elastic",
		Traffic: "poisson:load=2,tenants=2,cores=2,horizon=6000,slice=300,elems=96,repeats=1",
	}
	_, sub2 := postJob(t, ts, tSpec)

	v := waitTerminal(t, ts, sub.ID)
	if v.Status != StateDone {
		t.Fatalf("pair job = %+v, want done", v)
	}
	var pr PairResult
	if code := getJSON(t, ts, "/jobs/"+sub.ID+"/result", &pr); code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if pr.Cycles == 0 || len(pr.CoreCycles) != 2 {
		t.Fatalf("implausible pair result: %+v", pr)
	}

	v2 := waitTerminal(t, ts, sub2.ID)
	if v2.Status != StateDone {
		t.Fatalf("traffic job = %+v, want done", v2)
	}
	var tr TrafficResult
	getJSON(t, ts, "/jobs/"+sub2.ID+"/result", &tr)
	if tr.Arrivals == 0 || tr.Digest == "" {
		t.Fatalf("implausible traffic result: %+v", tr)
	}

	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := telemetry.ValidateOpenMetrics(resp2.Body); err != nil {
		t.Fatalf("/metrics is not valid OpenMetrics: %v", err)
	}
	if s.Stats().CacheHits() != 0 {
		t.Fatalf("pair/traffic jobs should not touch the checkpoint cache")
	}
}

// TestDedupCoalesces: an identical submission while the first is in flight
// returns the same job (200, deduplicated), not a second run.
func TestDedupCoalesces(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, AllowInjection: true, DrainGrace: 20 * time.Millisecond})
	defer s.Drain()

	_, hog := postJob(t, ts, hangSpec("t1", 99))
	waitRunning(t, s, hog.ID)

	resp1, sub1 := postJob(t, ts, pairSpec("t1", 2))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first = %d, want 202", resp1.StatusCode)
	}
	resp2, sub2 := postJob(t, ts, pairSpec("t1", 2))
	if resp2.StatusCode != http.StatusOK || !sub2.Dedup {
		t.Fatalf("second = %d dedup=%v, want 200 dedup=true", resp2.StatusCode, sub2.Dedup)
	}
	if sub1.ID != sub2.ID {
		t.Fatalf("dedup returned a different job: %s vs %s", sub1.ID, sub2.ID)
	}
	if got := s.Stats(); got.QueueDepth() < 1 {
		t.Fatalf("deduped submission should not consume queue slots")
	}
}

// TestOverloadQueueFull: a full queue rejects with 429 + Retry-After and the
// backlog never grows past its bound.
func TestOverloadQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Workers: 1, QueueCap: 1, TenantQuota: -1,
		AllowInjection: true, DrainGrace: 20 * time.Millisecond,
	})
	defer s.Drain()

	_, hog := postJob(t, ts, hangSpec("t1", 1))
	waitRunning(t, s, hog.ID)
	if resp, _ := postJob(t, ts, hangSpec("t1", 2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job = %d, want 202", resp.StatusCode)
	}
	resp, _ := postJob(t, ts, hangSpec("t1", 3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if d := s.Stats().QueueDepth(); d > 1 {
		t.Fatalf("queue depth %d exceeds cap 1", d)
	}
}

// TestTenantQuota: one tenant at its in-flight cap gets 429; another tenant
// is unaffected.
func TestTenantQuota(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Workers: 1, TenantQuota: 1,
		AllowInjection: true, DrainGrace: 20 * time.Millisecond,
	})
	defer s.Drain()

	_, hog := postJob(t, ts, hangSpec("t1", 1))
	waitRunning(t, s, hog.ID)
	resp, _ := postJob(t, ts, pairSpec("t1", 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp2, _ := postJob(t, ts, hangSpec("t2", 3)); resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant = %d, want 202", resp2.StatusCode)
	}
}

// TestTimeoutRetryBackoffSchedule drives a permanently hanging job through
// its full attempt budget with a fake clock: every timeout and every backoff
// delay is asserted exactly.
func TestTimeoutRetryBackoffSchedule(t *testing.T) {
	fc := newFakeClock()
	const timeout = time.Second
	s, ts := newTestServer(t, Options{
		Workers: 1, MaxAttempts: 3,
		BackoffBase: 100 * time.Millisecond, BackoffCap: 10 * time.Second,
		DefaultTimeout: timeout, Clock: fc, AllowInjection: true,
	})

	_, sub := postJob(t, ts, hangSpec("t1", 7))
	job, ok := s.Job(sub.ID)
	if !ok {
		t.Fatal("submitted job not found")
	}
	wantDelays := []time.Duration{s.backoffDelay(job.Key, 1), s.backoffDelay(job.Key, 2)}

	for attempt := 1; attempt <= 3; attempt++ {
		fc.pendingAtLeast(t, 1) // the attempt's deadline timer
		fc.Advance(timeout)
		if attempt < 3 {
			fc.pendingAtLeast(t, 1) // the backoff sleep
			fc.Advance(wantDelays[attempt-1])
		}
	}

	v := waitTerminal(t, ts, sub.ID)
	if v.Status != StateFailed {
		t.Fatalf("exhausted job = %+v, want failed", v)
	}
	if !strings.Contains(v.Error, "attempt budget exhausted") {
		t.Fatalf("failure reason %q lacks the budget marker", v.Error)
	}
	if v.Attempt != 3 {
		t.Fatalf("attempts = %d, want 3", v.Attempt)
	}
	var gotMS []int64
	for _, d := range wantDelays {
		gotMS = append(gotMS, d.Milliseconds())
	}
	if fmt.Sprint(v.RetryDelaysMS) != fmt.Sprint(gotMS) {
		t.Fatalf("backoff schedule = %v ms, want %v ms", v.RetryDelaysMS, gotMS)
	}
	st := s.Stats()
	if st.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries())
	}
	var buf bytes.Buffer
	st.WriteOpenMetrics(&buf)
	for _, want := range []string{"occamy_serve_timeouts_total 3", "occamy_serve_retries_total 2", "occamy_serve_jobs_failed_total 1"} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestTimeoutThenRecovers: inject a hang on the first attempt only — the
// retry runs the real simulation and the job completes, proving a transient
// failure costs one backoff, not the job.
func TestTimeoutThenRecovers(t *testing.T) {
	fc := newFakeClock()
	s, ts := newTestServer(t, Options{
		Workers: 1, MaxAttempts: 3,
		BackoffBase: 50 * time.Millisecond, BackoffCap: time.Second,
		DefaultTimeout: time.Second, Clock: fc, AllowInjection: true,
	})

	spec := pairSpec("t1", 5)
	spec.Inject = "timeout:1"
	_, sub := postJob(t, ts, spec)
	job, _ := s.Job(sub.ID)

	fc.pendingAtLeast(t, 1)
	fc.Advance(time.Second) // kill attempt 1
	fc.pendingAtLeast(t, 1)
	fc.Advance(s.backoffDelay(job.Key, 1)) // release the backoff; attempt 2 runs for real

	v := waitTerminal(t, ts, sub.ID)
	if v.Status != StateDone || v.Attempt != 2 {
		t.Fatalf("job = %+v, want done on attempt 2", v)
	}
	if len(v.RetryDelaysMS) != 1 {
		t.Fatalf("retry delays = %v, want exactly one", v.RetryDelaysMS)
	}
	if !v.HasResult {
		t.Fatal("recovered job has no result")
	}
}

// TestCampaignCacheAndCorruption is the checkpoint-cache integrity story end
// to end: a cold campaign populates the cache, an identical one hits it, a
// tampered entry is detected, evicted, and the job falls back to a cold
// warm-up — with every outcome bit-identical and counted in the metrics.
func TestCampaignCacheAndCorruption(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, AllowInjection: true})
	defer s.Drain()

	run := func() (JobView, CampaignResult) {
		t.Helper()
		resp, sub := postJob(t, ts, campaignSpec("t1"))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d", resp.StatusCode)
		}
		v := waitTerminal(t, ts, sub.ID)
		if v.Status != StateDone {
			t.Fatalf("campaign = %+v, want done", v)
		}
		var cr CampaignResult
		getJSON(t, ts, "/jobs/"+sub.ID+"/result", &cr)
		return v, cr
	}

	_, cold := run()
	if cold.CacheHit {
		t.Fatal("first campaign claims a cache hit")
	}
	if len(cold.Points) != 2 || cold.Points[0].Cycles == 0 {
		t.Fatalf("implausible campaign result: %+v", cold)
	}

	_, warm := run()
	if !warm.CacheHit {
		t.Fatal("second identical campaign missed the cache")
	}
	if fmt.Sprint(warm.Points) != fmt.Sprint(cold.Points) {
		t.Fatalf("warm campaign diverges from cold:\ncold: %+v\nwarm: %+v", cold.Points, warm.Points)
	}

	resp, err := http.Post(ts.URL+"/inject/corrupt-cache", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var tampered map[string]int
	json.NewDecoder(resp.Body).Decode(&tampered)
	resp.Body.Close()
	if tampered["tampered"] != 1 {
		t.Fatalf("tampered %d entries, want 1", tampered["tampered"])
	}

	_, healed := run()
	if healed.CacheHit {
		t.Fatal("corrupted entry should have forced a cold run")
	}
	if fmt.Sprint(healed.Points) != fmt.Sprint(cold.Points) {
		t.Fatalf("post-corruption campaign diverges from cold:\ncold: %+v\ngot: %+v", cold.Points, healed.Points)
	}
	st := s.Stats()
	if st.CacheCorrupts() != 1 {
		t.Fatalf("cache corrupt count = %d, want 1", st.CacheCorrupts())
	}

	_, rewarmed := run()
	if !rewarmed.CacheHit {
		t.Fatal("cold fallback should have repopulated the cache")
	}
	if fmt.Sprint(rewarmed.Points) != fmt.Sprint(cold.Points) {
		t.Fatalf("re-warmed campaign diverges from cold")
	}

	// Hits count restore attempts from a cached entry — the corrupted one
	// included (it is separately tallied under corrupt, and the cold
	// fallback repopulates via Put without a second miss). So after the
	// four runs: 1 miss (cold fill), 3 hits (warm, corrupt, re-warmed),
	// 1 corrupt.
	var buf bytes.Buffer
	st.WriteOpenMetrics(&buf)
	for _, want := range []string{
		"occamy_serve_cache_corrupt_total 1",
		"occamy_serve_cache_misses_total 1",
		"occamy_serve_cache_hits_total 3",
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDrainUnderLoad: a drain with live work stops admission, kills the
// running attempt after the grace, parks everything accepted-but-unfinished,
// and loses no job.
func TestDrainUnderLoad(t *testing.T) {
	fc := newFakeClock()
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{
		Workers: 1, DrainGrace: 10 * time.Second, Clock: fc,
		AllowInjection: true, JournalPath: filepath.Join(dir, "jobs.jsonl"),
	})

	_, running := postJob(t, ts, hangSpec("t1", 1))
	waitRunning(t, s, running.ID)
	_, queued1 := postJob(t, ts, pairSpec("t1", 2))
	_, queued2 := postJob(t, ts, pairSpec("t2", 3))

	drained := make(chan error, 1)
	go func() { drained <- s.Drain() }()
	// Rejections start as soon as the drain flag is set. Posting before then
	// would admit and journal the job, so wait for the flag first.
	deadline := time.Now().Add(30 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := postJob(t, ts, pairSpec("t3", 4)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post during drain = %d, want 503", resp.StatusCode)
	}
	// Two timers are pending: the running attempt's deadline and the drain
	// grace. Fire the grace; the hard stop parks everything.
	fc.pendingAtLeast(t, 2)
	fc.Advance(10 * time.Second)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	for _, id := range []string{running.ID, queued1.ID, queued2.ID} {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s lost by drain", id)
		}
		if got := j.Status(); got != StateParked {
			t.Fatalf("job %s = %s, want parked", id, got)
		}
	}
	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain = %d, want 503", code)
	}

	// The journal replays every parked job on the next start.
	_, replay, err := OpenJournal(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 3 {
		t.Fatalf("replay set has %d jobs, want 3", len(replay))
	}
}

// TestJournalReplay: a finished job is not replayed; a parked one is — and
// completes on the restarted server.
func TestJournalReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")

	s1, ts1 := newTestServer(t, Options{
		Workers: 2, AllowInjection: true, JournalPath: path,
		DrainGrace: 20 * time.Millisecond,
	})
	_, doneJob := postJob(t, ts1, pairSpec("t1", 1))
	if v := waitTerminal(t, ts1, doneJob.ID); v.Status != StateDone {
		t.Fatalf("job 1 = %+v", v)
	}
	_, hog := postJob(t, ts1, hangSpec("t1", 2))
	waitRunning(t, s1, hog.ID)
	if err := s1.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j, _ := s1.Job(hog.ID); j.Status() != StateParked {
		t.Fatalf("hung job = %s, want parked", j.Status())
	}

	// Restart: only the parked job replays. Its inject hook hangs attempt 1
	// again, but this server's per-attempt timeout is real and short, so the
	// retry (no longer the first attempt... inject "timeout" hangs every
	// attempt) — use the attempt budget to park it permanently instead:
	// what matters here is that it came back at all.
	s2, err := New(Options{
		Workers: 2, AllowInjection: true, JournalPath: path,
		DefaultTimeout: 50 * time.Millisecond, MaxAttempts: 1,
		DrainGrace: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := s2.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("restart replayed %d jobs, want 1", len(jobs))
	}
	if jobs[0].Spec.Seed != 2 || jobs[0].Spec.Inject == "" {
		t.Fatalf("wrong job replayed: %+v", jobs[0].Spec)
	}
	<-jobs[0].Done()
	if got := jobs[0].Status(); got != StateFailed {
		t.Fatalf("replayed hang = %s, want failed (single-attempt budget)", got)
	}
	if err := s2.Drain(); err != nil {
		t.Fatalf("drain 2: %v", err)
	}
}

// TestValidationRejects: malformed specs get a 400 before touching the queue
// or the journal, and injection hooks are refused without AllowInjection.
// An out-of-range machine tuning, which once panicked a worker in
// coproc.New (and again on every journal replay), is one of them: its 400
// carries the *arch.TuningError message and the server keeps serving.
func TestValidationRejects(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, ts := newTestServer(t, Options{Workers: 1, JournalPath: journal})
	defer s.Drain()

	bad := []JobSpec{
		{Tenant: "t", Kind: "pair", Arch: "elastic"},                                                               // no workloads
		{Tenant: "t", Kind: "pair", Arch: "warp", Workloads: []string{"spec/WL1"}},                                 // bad arch
		{Tenant: "t", Kind: "pair", Arch: "elastic", Workloads: []string{"spec/WL999"}},                            // bad workload
		{Tenant: "", Kind: "pair", Arch: "elastic", Workloads: []string{"spec/WL1"}},                               // no tenant
		{Tenant: "t", Kind: "traffic", Arch: "elastic", Traffic: "warp:load=1"},                                    // bad traffic
		{Tenant: "t", Kind: "campaign", Arch: "elastic", Workloads: []string{"spec/WL1"}},                          // no points
		{Tenant: "t", Kind: "pair", Arch: "elastic", Workloads: []string{"spec/WL1"}, Scale: -1},                   // bad scale
		{Tenant: "t", Kind: "pair", Arch: "elastic", Workloads: []string{"spec/WL1"}, Faults: []string{"bogus@x"}}, // bad fault
		{Tenant: "t", Kind: "pair", Arch: "elastic", Workloads: []string{"spec/WL1"},
			Machine: &occamy.MachineTuning{PhysRegs: 1 << 40}}, // unbuildable register file
		{Tenant: "t", Kind: "pair", Arch: "elastic", Workloads: []string{"spec/WL1", "spec/WL2"},
			Topology: &occamy.Topology{Clusters: 3}}, // cores do not divide over clusters
		{Tenant: "t", Kind: "traffic", Arch: "elastic", Traffic: "poisson:load=1",
			Topology: &occamy.Topology{Clusters: 3}}, // nor do the traffic spec's 4 default cores
	}
	for i, spec := range bad {
		if resp, _ := postJob(t, ts, spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d = %d, want 400", i, resp.StatusCode)
		}
	}
	inj := pairSpec("t", 1)
	inj.Inject = "timeout"
	if resp, _ := postJob(t, ts, inj); resp.StatusCode != http.StatusForbidden {
		t.Errorf("injection without AllowInjection accepted")
	}
	crash := `{"tenant":"t","kind":"pair","arch":"elastic","workloads":["spec/WL1"],"machine":{"lhq":4611686018427387904}}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(crash))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if want := "lhq = 4611686018427387904: must be <= 1024"; resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], want) {
		t.Errorf("crash spec = %d %q, want 400 containing %q", resp.StatusCode, body["error"], want)
	}
	// A hop latency past the bound once ran to the watchdog on a worker.
	hop := `{"tenant":"t","kind":"pair","arch":"elastic","workloads":["spec/WL1"],"topology":{"Clusters":1,"HopLatency":18446744073709551615}}`
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(hop))
	if err != nil {
		t.Fatal(err)
	}
	body = nil
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if want := "HopLatency = 18446744073709551615: must be <= 1048576 cycles"; resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], want) {
		t.Errorf("hop-latency spec = %d %q, want 400 containing %q", resp.StatusCode, body["error"], want)
	}
	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after the crash spec = %d, want 200", code)
	}
	if s.Stats().QueueDepth() != 0 {
		t.Errorf("rejected specs consumed queue slots")
	}
	if data, err := os.ReadFile(journal); err != nil || len(data) != 0 {
		t.Errorf("rejected specs reached the journal: %q (%v)", data, err)
	}
}

// TestJournalReplayValidates: a journaled spec this server refuses — an
// unknown workload, which once panicked a worker in the pair and campaign
// paths on every restart, an odd lane count a campaign once ran with, and
// an injection hook on a server that disallows them — is failed durably at
// replay: New returns, the server answers, each job reads failed with its
// error, and a second start on the same journal replays nothing.
func TestJournalReplayValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	lines := []string{
		`{"op":"accept","id":"job-1","spec":{"tenant":"t","kind":"pair","arch":"elastic","workloads":["nope"]}}`,
		`{"op":"accept","id":"job-2","spec":{"tenant":"t","kind":"campaign","arch":"elastic","workloads":["nope"],"faults":[""]}}`,
		`{"op":"accept","id":"job-3","spec":{"tenant":"t","kind":"campaign","arch":"elastic","workloads":["spec/WL20","spec/WL17"],"faults":[""],"lanes_per_core":3,"scale":0.05}}`,
		`{"op":"accept","id":"job-4","spec":{"tenant":"t","kind":"pair","arch":"elastic","workloads":["spec/WL20","spec/WL17"],"scale":0.05,"inject":"timeout"}}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Workers: 1, JournalPath: path})
	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	for _, want := range []struct{ id, err string }{
		{"job-1", "nope"}, {"job-2", "nope"}, {"job-3", "lanes_per_core"}, {"job-4", "injection hooks are disabled"},
	} {
		if v := waitTerminal(t, ts, want.id); v.Status != StateFailed || !strings.Contains(v.Error, want.err) {
			t.Errorf("%s = %s %q, want failed naming %q", want.id, v.Status, v.Error, want.err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	again, err := New(Options{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Drain()
	if jobs := again.Jobs(); len(jobs) != 0 {
		t.Fatalf("second start replayed %d jobs, want 0", len(jobs))
	}
}

// FuzzJobSpec drives POST /jobs' decoding and validation with arbitrary
// bodies. Every spec Validate accepts must derive its keys and build
// configurations without panicking, and must survive a journal round trip
// as a spec that still validates.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"t","kind":"pair","arch":"elastic","workloads":["spec/WL20","spec/WL17"]}`,
		`{"tenant":"t","kind":"campaign","arch":"fts","workloads":["spec/WL1"],"faults":["","exebu:1@5000"],"lanes_per_core":8}`,
		`{"tenant":"t","kind":"traffic","arch":"vls","traffic":"poisson:load=1,cores=2"}`,
		`{"tenant":"t","kind":"pair","arch":"elastic","workloads":["nope"]}`,
		`{"tenant":"t","kind":"campaign","arch":"elastic","workloads":["spec/WL1"],"faults":[""],"lanes_per_core":3}`,
		`{"tenant":"t","kind":"pair","arch":"private","workloads":["spec/WL1","spec/WL2"],"topology":{"Clusters":2}}`,
		`{"tenant":"t","kind":"pair","arch":"elastic","workloads":["spec/WL1"],"machine":{"lhq":64}}`,
	} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	n := 0
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.Validate() != nil {
			return
		}
		spec.Key()
		spec.WarmKey()
		if _, err := baseConfig(&spec); err != nil {
			t.Fatalf("baseConfig refused a valid spec: %v", err)
		}
		if _, _, _, err := campaignOptions(&spec); err != nil && spec.Kind == "campaign" {
			t.Fatalf("campaignOptions refused a valid campaign: %v", err)
		}
		n++
		path := filepath.Join(dir, fmt.Sprintf("j%d.jsonl", n))
		j, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Accept("job-1", spec); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, replay, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if len(replay) != 1 || replay[0].ID != "job-1" {
			t.Fatalf("journal round trip gave %+v", replay)
		}
		if err := replay[0].Spec.Validate(); err != nil {
			t.Fatalf("journaled spec no longer validates: %v\nspec %+v\nreplayed %+v", err, spec, replay[0].Spec)
		}
	})
}
