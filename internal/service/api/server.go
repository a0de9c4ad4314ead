// Package api is tlacached's HTTP surface: it accepts simulation jobs
// as JSON, collapses identical requests onto one cached or in-flight
// result, applies admission control (token-bucket rate gate plus a
// bounded in-flight count answering 429 with Retry-After), and streams
// per-job progress and interval telemetry to event subscribers.
//
// A job's identifier IS its cache key — the canonical content address
// of the request (service.Key) — so request coalescing needs no
// separate job-ID bookkeeping: two clients submitting the same spec
// are, by construction, asking for the same job.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tlacache/internal/cli"
	"tlacache/internal/runner"
	"tlacache/internal/service"
	"tlacache/internal/service/cache"
	"tlacache/internal/service/queue"
	"tlacache/internal/telemetry"
)

// ResultHeader tells the client how its submission was satisfied:
// "hit" (served from the cache), "coalesced" (attached to an identical
// in-flight job), or "miss" (a new simulation was started).
const ResultHeader = "X-Tlacache-Result"

// JobState is a job's lifecycle phase. The wire encoding is the plain
// string, so typing it costs nothing over the JSON API; switches over
// it must name every state (TestSwitchesAreExhaustive), so adding a
// lifecycle phase fails loudly in every dispatch instead of slipping
// through a default arm.
type JobState string

// Job states, in lifecycle order.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Sentinel errors for submission rejections.
var (
	// ErrDraining rejects new work while the daemon shuts down.
	ErrDraining = errors.New("api: daemon is draining")
	// ErrOverloaded rejects work that failed admission control.
	ErrOverloaded = errors.New("api: daemon is overloaded")
)

// Config parameterises a Server.
type Config struct {
	// Cache is the two-tier result store; nil builds a memory-only
	// cache.
	Cache *cache.Cache
	// Admission gates new simulations; nil admits everything.
	Admission *queue.Admission
	// Workers bounds concurrently executing simulations (default 2).
	Workers int
	// Version is reported by /v1/stats.
	Version string
	// Logger receives one structured record per request; nil disables
	// request logging (metrics and request IDs stay on).
	Logger *slog.Logger
}

// Server implements the daemon's HTTP API. Build with New.
type Server struct {
	cache   *cache.Cache
	adm     *queue.Admission
	flight  cache.Group
	sem     chan struct{}
	version string
	log     *slog.Logger
	metrics *metrics
	wg      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	draining bool
}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Cache == nil {
		c, err := cache.New(cache.Config{})
		if err != nil {
			return nil, err
		}
		cfg.Cache = c
	}
	if cfg.Admission == nil {
		cfg.Admission = queue.NewAdmission(0, nil)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	return &Server{
		cache:   cfg.Cache,
		adm:     cfg.Admission,
		sem:     make(chan struct{}, cfg.Workers),
		version: cfg.Version,
		log:     cfg.Logger,
		metrics: newMetrics(),
		jobs:    make(map[string]*Job),
	}, nil
}

// Handler returns the daemon's route table, wrapped in the request-ID
// and logging middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{key}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{key}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return s.withObservability(mux)
}

// Event is one entry in a job's event stream. RequestID names the
// submission that created the job, so a subscriber can correlate the
// stream with daemon logs and the eventual manifest.
type Event struct {
	Type      string            `json:"type"` // "state", "sample", "done", "error"
	Key       string            `json:"key,omitempty"`
	RequestID string            `json:"request_id,omitempty"`
	State     JobState          `json:"state,omitempty"`
	Sample    *telemetry.Sample `json:"sample,omitempty"`
	Error     string            `json:"error,omitempty"`
}

// Job tracks one in-flight simulation. Its identity is the cache key
// of its spec; completed jobs leave the registry (their result lives
// in the cache, their failure was delivered to every waiter).
type Job struct {
	Key string
	// RequestID is the submission that created the job (coalesced
	// duplicates keep the originator's ID). Immutable after newJob.
	RequestID string
	Spec      service.JobSpec
	queuedAt  time.Time
	done      chan struct{}

	mu     sync.Mutex
	state  JobState
	err    string
	result []byte // set on success; lets waiters answer even if no cache tier retained it
	spans  service.PhaseSpans
	subs   map[chan Event]struct{}
}

func newJob(key, requestID string, spec service.JobSpec) *Job {
	return &Job{
		Key:       key,
		RequestID: requestID,
		Spec:      spec,
		queuedAt:  time.Now(),
		done:      make(chan struct{}),
		state:     StateQueued,
		subs:      make(map[chan Event]struct{}),
	}
}

// spansSnapshot reads the phase spans recorded so far.
func (j *Job) spansSnapshot() service.PhaseSpans {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spans
}

// snapshot reads the job's current state and error message.
func (j *Job) snapshot() (state JobState, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err
}

// setState transitions the job and notifies subscribers.
func (j *Job) setState(state JobState) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
	j.publish(Event{Type: "state", Key: j.Key, State: state})
}

// complete marks success, pins the result for waiters, and releases
// every waiter.
func (j *Job) complete(result []byte) {
	j.mu.Lock()
	j.state = StateDone
	j.result = result
	j.mu.Unlock()
	j.publish(Event{Type: "done", Key: j.Key, State: StateDone})
	close(j.done)
}

// resultSnapshot reads the pinned result; nil before completion or on
// failure.
func (j *Job) resultSnapshot() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// fail marks failure and releases every waiter.
func (j *Job) fail(msg string) {
	j.mu.Lock()
	j.state = StateFailed
	j.err = msg
	j.mu.Unlock()
	j.publish(Event{Type: "error", Key: j.Key, State: StateFailed, Error: msg})
	close(j.done)
}

// subscribe registers an event channel. The buffer absorbs bursts;
// publish drops events to a subscriber that stops draining rather
// than ever blocking the simulation goroutine.
func (j *Job) subscribe() chan Event {
	ch := make(chan Event, 64)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *Job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// publish fans an event out to subscribers. The subscriber list is
// copied under the lock and the (non-blocking) sends happen outside
// it — a send under a held mutex is the deadlock shape
// TestLockDiscipline exists to reject.
func (j *Job) publish(ev Event) {
	if ev.RequestID == "" {
		ev.RequestID = j.RequestID
	}
	j.mu.Lock()
	chans := make([]chan Event, 0, len(j.subs))
	for ch := range j.subs {
		chans = append(chans, ch)
	}
	j.mu.Unlock()
	for _, ch := range chans {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, never block the simulation
		}
	}
}

// submit attaches the request to an existing in-flight job (coalesced)
// or admits and starts a new one. The admission gates run only for
// genuinely new work — a coalesced duplicate costs no rate token.
// requestID and lookupSeconds (the submission's cache-lookup span)
// seed the new job's provenance; a coalesced request keeps the
// originator's.
func (s *Server) submit(key string, spec service.JobSpec, requestID string, lookupSeconds float64) (j *Job, coalesced bool, retry time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, 0, ErrDraining
	}
	if j, ok := s.jobs[key]; ok {
		return j, true, 0, nil
	}
	release, retry, ok := s.adm.Admit()
	if !ok {
		return nil, false, retry, ErrOverloaded
	}
	j = newJob(key, requestID, spec)
	j.spans.CacheLookupSeconds = lookupSeconds
	s.jobs[key] = j
	s.wg.Add(1)
	go s.run(j, release)
	return j, false, 0, nil
}

// lookupJob returns the in-flight job for key, if any.
func (s *Server) lookupJob(key string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[key]
}

// removeJob drops a finished job from the registry; status queries
// for it fall through to the cache.
func (s *Server) removeJob(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[j.Key] == j {
		delete(s.jobs, j.Key)
	}
}

// run executes one job: a worker slot, then the single-flight cache
// fill. The runner (Workers: 1) supplies panic recovery — a crashing
// simulation becomes this job's error, not a daemon crash. The
// admission slot is released before the job turns terminal, so a
// client woken by completion never sees its job still counted in the
// queue depth.
func (s *Server) run(j *Job, release func()) {
	defer s.wg.Done()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	j.mu.Lock()
	j.spans.AdmissionWaitSeconds = time.Since(j.queuedAt).Seconds()
	j.mu.Unlock()

	j.setState(StateRunning)
	data, _, err := s.cache.GetOrCompute(&s.flight, j.Key, func() ([]byte, error) {
		return s.executeJob(j)
	})
	s.removeJob(j)
	release()
	if err != nil {
		j.fail(err.Error())
		return
	}
	j.complete(data)
}

// executeJob runs the simulation and encodes its manifest, annotated
// with the request ID and the daemon's phase spans. Interval
// telemetry streams to the job's subscribers as it is observed.
func (s *Server) executeJob(j *Job) ([]byte, error) {
	sink := func(sm telemetry.Sample) {
		j.publish(Event{Type: "sample", Key: j.Key, Sample: &sm})
	}
	simStart := time.Now()
	res, err := runner.Run(context.Background(), runner.Config{Workers: 1},
		[]runner.Job[service.Manifest]{{
			Name: j.Key,
			Work: j.Spec.Work(),
			Run: func(context.Context) (service.Manifest, error) {
				return service.Execute(j.Spec, sink)
			},
		}})
	if err != nil {
		return nil, err
	}
	if res[0].Err != nil {
		return nil, res[0].Err
	}
	spans := j.spansSnapshot()
	spans.SimulateSeconds = time.Since(simStart).Seconds()

	// Measure a first encode of the full manifest, then encode again
	// with the spans embedded — the second pass differs only in the
	// phase numbers, so the measured cost is representative.
	m := res[0].Value
	m.RequestID = j.RequestID
	encStart := time.Now()
	if _, err := service.EncodeManifest(m); err != nil {
		return nil, err
	}
	spans.EncodeSeconds = time.Since(encStart).Seconds()
	m.Phases = &spans
	s.metrics.observePhases(spans)
	return service.EncodeManifest(m)
}

// Drain stops admitting work and waits for in-flight jobs to finish,
// up to ctx's deadline. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("api: drain: %w", ctx.Err())
	}
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	Key    string   `json:"key"`
	State  JobState `json:"state"`
	Error  string   `json:"error,omitempty"`
	Result string   `json:"result,omitempty"`
}

func resultPath(key string) string { return "/v1/jobs/" + key + "/result" }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func serveManifest(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data) //nolint:errcheck // client gone; nothing to do
}

// retrySeconds renders a Retry-After value: whole seconds, at least 1.
func retrySeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// handleSubmit is POST /v1/jobs: validate, content-address, serve a
// hit, else coalesce or admit. `?wait=1` blocks until the manifest is
// ready; the default returns 202 with the job's status.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var spec service.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "invalid job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	norm, key, err := service.SpecKey(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	lookupStart := time.Now()
	data, ok := s.cache.Get(key)
	lookupSeconds := time.Since(lookupStart).Seconds()
	if ok {
		w.Header().Set(ResultHeader, "hit")
		s.metrics.observeJob("hit", time.Since(start))
		serveManifest(w, data)
		return
	}

	j, coalesced, retry, err := s.submit(key, norm, requestIDFrom(r.Context()), lookupSeconds)
	switch {
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retrySeconds(5*time.Second))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", retrySeconds(retry))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	verdict := "miss"
	if coalesced {
		verdict = "coalesced"
	}
	w.Header().Set(ResultHeader, verdict)
	defer func() { s.metrics.observeJob(verdict, time.Since(start)) }()

	if q := r.URL.Query().Get("wait"); q == "" || q == "0" {
		state, _ := j.snapshot()
		writeJSON(w, http.StatusAccepted, JobStatus{Key: key, State: state, Result: resultPath(key)})
		return
	}

	select {
	case <-j.done:
	case <-r.Context().Done():
		return
	}
	if _, errMsg := j.snapshot(); errMsg != "" {
		http.Error(w, "simulation failed: "+errMsg, http.StatusInternalServerError)
		return
	}
	data, ok = s.cache.Get(key)
	if !ok {
		// No cache tier retained the result (disk write failed, memory
		// entry evicted); the completed job still pins it.
		data = j.resultSnapshot()
	}
	if data == nil {
		http.Error(w, "result missing after completion", http.StatusInternalServerError)
		return
	}
	serveManifest(w, data)
}

// pathKey extracts and validates the {key} wildcard. ServeMux
// unescapes wildcard segments, so a raw r.PathValue can carry path
// separators ("..%2F..%2Fetc%2Fpasswd"); only exact canonical content
// addresses pass — anything else is answered 404 before it can reach
// a cache tier or the disk. The uniform 404 also keeps invalid keys
// from probing file existence.
func pathKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if !service.ValidKey(key) {
		http.Error(w, "unknown job", http.StatusNotFound)
		return "", false
	}
	return key, true
}

// handleStatus is GET /v1/jobs/{key}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	key, ok := pathKey(w, r)
	if !ok {
		return
	}
	if j := s.lookupJob(key); j != nil {
		state, errMsg := j.snapshot()
		writeJSON(w, http.StatusOK, JobStatus{Key: key, State: state, Error: errMsg})
		return
	}
	if _, ok := s.cache.Get(key); ok {
		writeJSON(w, http.StatusOK, JobStatus{Key: key, State: StateDone, Result: resultPath(key)})
		return
	}
	http.Error(w, "unknown job", http.StatusNotFound)
}

// handleResult is GET /v1/jobs/{key}/result: the manifest when ready,
// 202 with status while the job runs, 404 otherwise.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key, ok := pathKey(w, r)
	if !ok {
		return
	}
	if data, ok := s.cache.Get(key); ok {
		w.Header().Set(ResultHeader, "hit")
		serveManifest(w, data)
		return
	}
	if j := s.lookupJob(key); j != nil {
		state, errMsg := j.snapshot()
		writeJSON(w, http.StatusAccepted, JobStatus{Key: key, State: state, Error: errMsg})
		return
	}
	http.Error(w, "unknown job", http.StatusNotFound)
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// handleWorkloads is GET /v1/workloads: the submittable vocabulary.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Mixes    []string `json:"mixes"`
		Policies []string `json:"policies"`
	}{service.Mixes(), cli.PolicyNames()})
}

// handleHealth is GET /healthz: 200 while serving, 503 once draining.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n")) //nolint:errcheck
}
