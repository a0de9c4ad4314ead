package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"tlacache/internal/service"
	"tlacache/internal/service/cache"
	"tlacache/internal/service/queue"
)

func u64(v uint64) *uint64 { return &v }

// smallSpec is a fast-to-simulate job used throughout; seed varies
// the cache key so tests do not collide.
func smallSpec(seed uint64) service.JobSpec {
	return service.JobSpec{
		Apps: []string{"sje", "lib"}, Seed: seed,
		Instructions: 30_000, Warmup: u64(0),
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec service.JobSpec, wait bool) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Submitting the same spec twice must simulate once: the first
// response is a miss, the second a byte-identical cache hit.
func TestSubmitMissThenHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r1 := submit(t, ts, smallSpec(1), true)
	b1 := readBody(t, r1)
	if r1.StatusCode != http.StatusOK || r1.Header.Get(ResultHeader) != "miss" {
		t.Fatalf("first submit: status %d, %s=%q", r1.StatusCode, ResultHeader, r1.Header.Get(ResultHeader))
	}
	r2 := submit(t, ts, smallSpec(1), true)
	b2 := readBody(t, r2)
	if r2.StatusCode != http.StatusOK || r2.Header.Get(ResultHeader) != "hit" {
		t.Fatalf("second submit: status %d, %s=%q", r2.StatusCode, ResultHeader, r2.Header.Get(ResultHeader))
	}
	if !bytes.Equal(b1, b2) {
		t.Error("cache hit is not byte-identical to the original manifest")
	}
	m, err := service.DecodeManifest(b1)
	if err != nil {
		t.Fatalf("manifest does not decode: %v", err)
	}
	if m.Result.Throughput <= 0 {
		t.Errorf("throughput %f", m.Result.Throughput)
	}
}

// A manifest must survive a daemon restart via the disk tier.
func TestHitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Cache: c1})
	b1 := readBody(t, submit(t, ts1, smallSpec(2), true))

	c2, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Cache: c2})
	r2 := submit(t, ts2, smallSpec(2), true)
	b2 := readBody(t, r2)
	if r2.Header.Get(ResultHeader) != "hit" {
		t.Fatalf("restarted daemon: %s=%q", ResultHeader, r2.Header.Get(ResultHeader))
	}
	if !bytes.Equal(b1, b2) {
		t.Error("restart hit differs from original manifest")
	}
}

// N concurrent identical submissions must run exactly one simulation;
// every caller gets the identical manifest.
func TestConcurrentSubmitCoalesces(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const n = 8
	spec := service.JobSpec{
		Apps: []string{"sje", "lib"}, Seed: 11,
		Instructions: 200_000, Warmup: u64(0),
	}
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	verdicts := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
			verdicts[i] = resp.Header.Get(ResultHeader)
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	misses := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("caller %d: status %d body %s", i, codes[i], bodies[i])
		}
		if verdicts[i] == "miss" {
			misses++
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("caller %d body differs", i)
		}
	}
	if misses > 1 {
		t.Errorf("%d callers started simulations, want at most 1", misses)
	}
	// The proof of coalescing: one admission, one cache fill.
	if st := s.adm.Stats(); st.Admitted != 1 {
		t.Errorf("admitted %d simulations, want 1", st.Admitted)
	}
	if st := s.cache.Stats(); st.Puts != 1 {
		t.Errorf("cache filled %d times, want 1", st.Puts)
	}
}

// An empty token bucket must answer 429 with a positive integer
// Retry-After, and a refilled bucket must admit again.
func TestRateLimit429(t *testing.T) {
	clk := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var clkMu sync.Mutex
	now := func() time.Time {
		clkMu.Lock()
		defer clkMu.Unlock()
		return clk
	}
	bucket := queue.NewTokenBucket(0.25, 1, now) // one token per 4s
	_, ts := newTestServer(t, Config{Admission: queue.NewAdmission(0, bucket)})

	r1 := submit(t, ts, smallSpec(21), true)
	readBody(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %d", r1.StatusCode)
	}
	r2 := submit(t, ts, smallSpec(22), false)
	readBody(t, r2)
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", r2.StatusCode)
	}
	secs, err := strconv.Atoi(r2.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want positive integer seconds", r2.Header.Get("Retry-After"))
	}

	clkMu.Lock()
	clk = clk.Add(4 * time.Second)
	clkMu.Unlock()
	r3 := submit(t, ts, smallSpec(22), true)
	readBody(t, r3)
	if r3.StatusCode != http.StatusOK {
		t.Errorf("post-refill submit: %d", r3.StatusCode)
	}
}

// A full in-flight window must answer 429 without burning rate
// tokens, and a cache hit must bypass admission entirely.
func TestQueueFull429(t *testing.T) {
	_, ts := newTestServer(t, Config{Admission: queue.NewAdmission(1, nil), Workers: 1})
	// Occupy the single slot with a job big enough to still be
	// in flight when the next submit lands microseconds later.
	slow := service.JobSpec{
		Apps: []string{"sje", "lib"}, Seed: 31,
		Instructions: 3_000_000, Warmup: u64(0),
	}
	r1 := submit(t, ts, slow, false)
	readBody(t, r1)
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d, want 202", r1.StatusCode)
	}
	r2 := submit(t, ts, smallSpec(32), false)
	readBody(t, r2)
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// A duplicate of the in-flight job coalesces instead of rejecting.
	r3 := submit(t, ts, slow, false)
	readBody(t, r3)
	if r3.StatusCode != http.StatusAccepted || r3.Header.Get(ResultHeader) != "coalesced" {
		t.Errorf("duplicate submit: %d %s=%q, want 202 coalesced",
			r3.StatusCode, ResultHeader, r3.Header.Get(ResultHeader))
	}
}

// Draining: new submissions get 503, health flips, in-flight work
// completes and is served from the cache afterwards.
func TestDrainRejectsNewWork(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r1 := submit(t, ts, smallSpec(41), false)
	readBody(t, r1)
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", r1.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	r2 := submit(t, ts, smallSpec(42), false)
	readBody(t, r2)
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: %d, want 503", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, hr)
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d", hr.StatusCode)
	}
	// The drained job's result is still served (hits bypass draining).
	r3 := submit(t, ts, smallSpec(41), false)
	b3 := readBody(t, r3)
	if r3.StatusCode != http.StatusOK || r3.Header.Get(ResultHeader) != "hit" {
		t.Errorf("drained result: %d %s=%q body %s",
			r3.StatusCode, ResultHeader, r3.Header.Get(ResultHeader), b3)
	}
}

// TestDrainDeadlineMidSimulation drains with a deadline that expires
// while a job is still simulating and one client waits on ?wait=1: the
// drain reports its deadline, new work is refused with 503, the
// waiting client still gets the whole manifest once the job finishes,
// and the disk tier serves the same bytes, to this cache and to a new
// one opened on the same directory.
func TestDrainDeadlineMidSimulation(t *testing.T) {
	dir := t.TempDir()
	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Cache: c})
	// Long enough that the job is still simulating when the drain's
	// deadline, a millisecond after the job starts, expires.
	spec := service.JobSpec{Apps: []string{"sje", "lib"}, Seed: 43, Instructions: 3_000_000, Warmup: u64(0)}
	_, key, err := service.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		body   []byte
		err    error
	}
	waiter := make(chan reply, 1)
	go func() {
		// A client that never gives up would hang the test instead of
		// failing it.
		client := &http.Client{Timeout: 2 * time.Minute}
		resp, err := client.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			waiter <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		waiter <- reply{resp.StatusCode, data, err}
	}()

	for {
		if j := s.lookupJob(key); j != nil {
			if state, _ := j.snapshot(); state == StateRunning {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with a job mid-simulation: %v, want its deadline", err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("the job's result was cached before it finished")
	}

	r := submit(t, ts, smallSpec(44), false)
	readBody(t, r)
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after the drain: %d, want 503", r.StatusCode)
	}

	got := <-waiter
	if got.err != nil || got.status != http.StatusOK {
		t.Fatalf("waiting client: status %d, error %v, body %s", got.status, got.err, got.body)
	}
	var m service.Manifest
	if err := json.Unmarshal(got.body, &m); err != nil || m.Key != key || len(m.Result.Apps) != len(spec.Apps) || m.Result.Throughput <= 0 {
		t.Fatalf("waiting client got a partial manifest (key %q, error %v)", m.Key, err)
	}
	if cached, ok := c.Get(key); !ok || !bytes.Equal(cached, got.body) {
		t.Error("the cache does not serve the bytes the waiting client got")
	}
	reopened, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if cached, ok := reopened.Get(key); !ok || !bytes.Equal(cached, got.body) {
		t.Error("a cache reopened on the directory does not serve the bytes the waiting client got")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"not-json":      "{",
		"unknown-field": `{"apps":["sje","lib"],"wat":1}`,
		"no-workload":   `{}`,
		"unknown-app":   `{"apps":["nope"]}`,
		"bad-policy":    `{"apps":["sje","lib"],"policy":"wat"}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatal(err)
			}
			readBody(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

func TestStatusAndResultLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/v1:deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d", resp.StatusCode)
	}

	r1 := submit(t, ts, smallSpec(51), true)
	readBody(t, r1)
	var key string
	{
		_, k, err := service.SpecKey(smallSpec(51))
		if err != nil {
			t.Fatal(err)
		}
		key = k
	}
	sr, err := http.Get(ts.URL + "/v1/jobs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.Unmarshal(readBody(t, sr), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Key != key {
		t.Errorf("status after completion: %+v", st)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + key + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data := readBody(t, rr)
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", rr.StatusCode)
	}
	if m, err := service.DecodeManifest(data); err != nil || m.Key != key {
		t.Errorf("result manifest: %v, key %q", err, m.Key)
	}
}

// A {key} path segment that is not a canonical content address — in
// particular an escaped traversal like ..%2Fvictim, which ServeMux
// unescapes into a relative path — must be answered 404 before any
// cache or disk access: a file next to the cache directory is neither
// disclosed nor quarantine-renamed.
func TestTraversalKeyRejected(t *testing.T) {
	base := t.TempDir()
	c, err := cache.New(cache.Config{Dir: filepath.Join(base, "cache")})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: c})
	// cache.path("../victim") would resolve here if a traversal key got
	// through.
	victim := filepath.Join(base, "victim.entry")
	if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{
		"/v1/jobs/..%2Fvictim",
		"/v1/jobs/..%2Fvictim/result",
		"/v1/jobs/..%2Fvictim/events",
		"/v1/jobs/..%2F..%2Fetc%2Fpasswd/result",
		"/v1/jobs/notakey",
		"/v1/jobs/v1:deadbeef/result", // well-formed prefix, not a full address
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
	if got, err := os.ReadFile(victim); err != nil || string(got) != "precious" {
		t.Errorf("victim file touched: %q, %v", got, err)
	}
	if _, err := os.Stat(victim + ".corrupt"); !os.IsNotExist(err) {
		t.Error("victim file quarantined")
	}
}

func TestStatsAndWorkloads(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "test"})
	readBody(t, submit(t, ts, smallSpec(61), true))
	readBody(t, submit(t, ts, smallSpec(61), true))

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Version   string      `json:"version"`
		Cache     cache.Stats `json:"cache"`
		Admission queue.Stats `json:"admission"`
	}
	if err := json.Unmarshal(readBody(t, resp), &stats); err != nil {
		t.Fatal(err)
	}
	// Two mem hits: the first (waited) submit reads its own fill back,
	// the second is the genuine repeat hit. One put, one admission.
	if stats.Version != "test" || stats.Cache.Puts != 1 || stats.Cache.MemHits != 2 || stats.Admission.Admitted != 1 {
		t.Errorf("stats: %+v", stats)
	}

	wresp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var wl struct {
		Mixes    []string `json:"mixes"`
		Policies []string `json:"policies"`
	}
	if err := json.Unmarshal(readBody(t, wresp), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Mixes) != 12 || len(wl.Policies) == 0 {
		t.Errorf("workloads: %+v", wl)
	}
}

// Unit-level pub/sub on Job: events reach subscribers, slow
// subscribers are dropped rather than blocking, terminal events close
// the stream.
func TestJobPubSub(t *testing.T) {
	j := newJob("v1:k", "req-1", service.JobSpec{})
	ch := j.subscribe()
	j.setState(StateRunning)
	select {
	case ev := <-ch:
		if ev.Type != "state" || ev.State != StateRunning {
			t.Errorf("event: %+v", ev)
		}
	default:
		t.Fatal("no event delivered")
	}

	// A subscriber that never drains must not block publish: overflow
	// its buffer and confirm publish returns.
	for i := 0; i < 200; i++ {
		j.publish(Event{Type: "sample", Key: j.Key})
	}

	j.unsubscribe(ch)
	j.complete([]byte(`"r"`))
	select {
	case <-j.done:
	default:
		t.Fatal("done not closed")
	}
	if state, _ := j.snapshot(); state != StateDone {
		t.Errorf("state %q", state)
	}
}

func TestRetrySeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"}, {200 * time.Millisecond, "1"}, {time.Second, "1"},
		{1100 * time.Millisecond, "2"}, {4 * time.Second, "4"},
	} {
		if got := retrySeconds(tc.d); got != tc.want {
			t.Errorf("retrySeconds(%v) = %s, want %s", tc.d, got, tc.want)
		}
	}
}

// The events endpoint: a finished job yields a finite stream ending
// in a terminal event; samples observed during a live run are framed
// as JSON lines.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := service.JobSpec{
		Apps: []string{"sje", "lib"}, Seed: 71,
		Instructions: 100_000, Warmup: u64(0), Interval: 20_000,
	}
	_, key, err := service.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + key + "/events")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown job: %d", resp.StatusCode)
	}

	readBody(t, submit(t, ts, spec, false))
	er, err := http.Get(ts.URL + "/v1/jobs/" + key + "/events")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(readBody(t, er)), []byte("\n"))
	if ct := er.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var last Event
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		last = ev
	}
	if last.Type != "done" {
		t.Errorf("stream ended with %+v, want done", last)
	}

	// SSE framing when asked for.
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+key+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	sr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sse := readBody(t, sr)
	if ct := sr.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	if !bytes.Contains(sse, []byte("event: done\ndata: ")) {
		t.Errorf("SSE framing missing: %q", sse)
	}
}

// A failing simulation must answer the waiter with 500 and leave the
// key resubmittable (errors are never cached).
func TestFailedJobNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// No way to make a valid spec fail deterministically through the
	// HTTP layer, so drive the internals: a job whose compute errors.
	j, coalesced, _, err := s.submit("v1:boom", service.JobSpec{}, "req-boom", 0)
	if err != nil || coalesced {
		t.Fatalf("submit: %v coalesced=%v", err, coalesced)
	}
	<-j.done
	if state, errMsg := j.snapshot(); state != StateFailed || errMsg == "" {
		t.Errorf("state %q err %q", state, errMsg)
	}
	if _, ok := s.cache.Get("v1:boom"); ok {
		t.Error("failed job cached")
	}
	if s.lookupJob("v1:boom") != nil {
		t.Error("failed job still registered")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/v1:boom")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("failed job status: %d (failed jobs leave the registry)", resp.StatusCode)
	}
}

// TestRunReleasesAdmissionBeforeTerminalState pins the order in
// Server.run: the admission slot is released while the job is still
// running, so a ?wait=1 client woken by completion or failure never
// sees its own job in tlacached_queue_depth.
func TestRunReleasesAdmissionBeforeTerminalState(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		spec service.JobSpec
		want JobState
	}{
		{"complete", smallSpec(81), StateDone},
		{"fail", service.JobSpec{}, StateFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := newJob("v1:release-"+tc.name, "req-"+tc.name, tc.spec)
			var atRelease []JobState
			s.wg.Add(1)
			s.run(j, func() {
				state, _ := j.snapshot()
				atRelease = append(atRelease, state)
			})
			if len(atRelease) != 1 {
				t.Fatalf("release called %d times, want once", len(atRelease))
			}
			if atRelease[0] != StateRunning {
				t.Errorf("admission released with the job %q, want %q", atRelease[0], StateRunning)
			}
			if state, _ := j.snapshot(); state != tc.want {
				t.Errorf("job ended %q, want %q", state, tc.want)
			}
		})
	}
}
