package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tlacache/internal/cli"
	"tlacache/internal/service"
	"tlacache/internal/service/api"
	"tlacache/internal/service/cache"
	"tlacache/internal/workload"
)

// Service workload shape: each pass submits newEvery*specs requests
// from `clients` closed-loop clients to a fresh daemon.
const (
	clients    = 2
	newEvery   = 11 // one request in 11 introduces a spec: ~9% misses
	memEntries = 64
	zipfS      = 1.1
)

// specStream is the service workload's input: distinct job specs and
// the order the clients submit them in.
type specStream struct {
	specs  []service.JobSpec
	bodies [][]byte // JSON request body per spec
	reqs   []int    // spec index per request
}

// newSpecStream draws n distinct specs from seed: an AllPairs mix, a
// policy, a spec seed in 1–3, and a budget of `budget` warmup plus
// `budget` measured instructions per core. Request i introduces the
// next spec when i is a multiple of newEvery; every other request
// repeats an introduced spec, drawn Zipf(1.1) by age so the oldest
// specs are the most popular.
func newSpecStream(seed uint64, n int, budget uint64) (specStream, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	pairs, policies := workload.AllPairs(), cli.PolicyNames()
	var st specStream
	seen := make(map[[3]int]bool)
	for len(st.specs) < n {
		k := [3]int{rng.IntN(len(pairs)), rng.IntN(len(policies)), 1 + rng.IntN(3)}
		if seen[k] {
			continue
		}
		seen[k] = true
		warmup := budget
		spec := service.JobSpec{Apps: pairs[k[0]].Apps, Policy: policies[k[1]],
			Seed: uint64(k[2]), Instructions: budget, Warmup: &warmup}
		body, err := json.Marshal(spec)
		if err != nil {
			return st, err
		}
		st.specs, st.bodies = append(st.specs, spec), append(st.bodies, body)
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	introduced := 0
	for i := 0; i < newEvery*n; i++ {
		if i%newEvery == 0 {
			st.reqs = append(st.reqs, introduced)
			introduced++
			continue
		}
		k := zipf.Uint64()
		for k >= uint64(introduced) {
			k = zipf.Uint64()
		}
		st.reqs = append(st.reqs, int(k))
	}
	return st, nil
}

// liveServer is an in-process daemon on a loopback listener.
type liveServer struct {
	api    *api.Server
	http   *http.Server
	url    string
	dir    string
	served chan error
}

// startServer starts a daemon with a memory tier of memEntries and a
// disk tier in a new directory under tmp, and returns once /healthz
// answers.
func startServer(tmp string, client *http.Client) (_ *liveServer, err error) {
	dir, err := os.MkdirTemp(tmp, "service-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	c, err := cache.New(cache.Config{Dir: filepath.Join(dir, "cache"), MemEntries: memEntries})
	if err != nil {
		return nil, err
	}
	a, err := api.New(api.Config{Cache: c, Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &liveServer{api: a, http: &http.Server{Handler: a.Handler()},
		url: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	go func() { l.served <- l.http.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(l.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return l, nil
			}
		}
		if time.Now().After(deadline) {
			l.stop() //nolint:errcheck // already failing
			return nil, fmt.Errorf("daemon never answered /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down, waits for it, and removes its disk tier.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.http.Shutdown(ctx)
	if derr := l.api.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-l.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(l.dir); err == nil {
		err = rerr
	}
	return err
}

// get fetches a daemon path and returns its body.
func (l *liveServer) get(client *http.Client, path string) ([]byte, error) {
	resp, err := client.Get(l.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, err
}

// Request outcomes, as the daemon's X-Tlacache-Result header names them.
var verdicts = []string{"hit", "miss", "coalesced"}

type reqOut struct {
	lat     float64 // seconds
	verdict int     // index into verdicts, -1 on failure
}

// svcSession drives passes of the spec stream against fresh daemons.
type svcSession struct {
	primed
	tmp    string
	stream specStream
	work   float64 // simulated instructions per spec
	client *http.Client
	next   *liveServer // started ahead of the next pass, outside its timing
	// Untraced passes: wall and median request latency per pass, and
	// latencies of all passes by verdict, in seconds.
	walls, p50s []float64
	byClass     [3][]float64
	requests    int
	// From the last traced pass: /metrics phase means and /v1/stats.
	phases map[string]float64
	stats  cache.Stats
}

func startService(o Options) (session, error) {
	n, budget := 200, uint64(100_000)
	if o.Quick {
		n, budget = 10, 10_000
	}
	st, err := newSpecStream(o.Seed, n, budget)
	if err != nil {
		return nil, err
	}
	norm, err := st.specs[0].Normalize()
	if err != nil {
		return nil, err
	}
	cfg, err := norm.Resolve()
	if err != nil {
		return nil, err
	}
	p, err := prime(cfg, workload.Mix{Name: "custom", Apps: norm.Apps})
	if err != nil {
		return nil, err
	}
	s := &svcSession{primed: p, tmp: o.TempDir, stream: st, work: float64(norm.Work()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}}
	s.next, err = startServer(s.tmp, s.client)
	return s, err
}

// firstBodies keeps each spec's first response body; every later
// response for the spec must repeat it byte for byte.
type firstBodies struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (f *firstBodies) same(spec int, body []byte) bool {
	f.mu.Lock()
	prev := f.bodies[spec]
	if prev == nil {
		f.bodies[spec] = body
	}
	f.mu.Unlock()
	return prev == nil || bytes.Equal(prev, body)
}

func (s *svcSession) pass(r *Result, tr *tracer) passOut {
	n := len(s.stream.reqs)
	srv := s.next
	s.next = nil
	if srv == nil {
		var err error
		if srv, err = startServer(s.tmp, s.client); err != nil {
			r.Fail(n, "service: %v", err)
			return passOut{ops: n}
		}
	}
	var root uint64
	if tr != nil {
		var done func()
		root, done = tr.span("pass.service", 0)
		defer done()
	}
	outs := make([]reqOut, n)
	first := &firstBodies{bodies: make([][]byte, len(s.stream.specs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				outs[i] = s.submit(r, srv.url, i, first, tr, root)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if tr != nil {
		s.scrape(r, srv)
	}
	if err := srv.stop(); err != nil {
		r.Fail(1, "service stop: %v", err)
	}
	if tr == nil {
		var all []float64
		for _, o := range outs {
			if o.verdict >= 0 {
				s.byClass[o.verdict] = append(s.byClass[o.verdict], o.lat)
				all = append(all, o.lat)
			}
		}
		s.walls, s.p50s = append(s.walls, wall), append(s.p50s, Median(all))
		s.requests += len(all)
	}
	return passOut{wall: wall, ops: n, digest: s.digest(r, first.bodies)}
}

// submit sends request i and checks its response.
func (s *svcSession) submit(r *Result, url string, i int, first *firstBodies, tr *tracer, root uint64) reqOut {
	spec := s.stream.reqs[i]
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs?wait=1", bytes.NewReader(s.stream.bodies[spec]))
	if err != nil {
		panic(err) // a constant method and a well-formed URL
	}
	var id uint64
	if tr != nil {
		id = tr.newID()
		req.Header.Set(api.RequestIDHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	if tr != nil {
		tr.record("http.submit", id, root, start, end)
	}
	out := reqOut{lat: end.Sub(start).Seconds(), verdict: -1}
	switch {
	case err != nil:
		r.Fail(1, "request %d: %v", i, err)
	case resp.StatusCode != http.StatusOK:
		r.Fail(1, "request %d: %s: %.200s", i, resp.Status, body)
	case !first.same(spec, body):
		r.Fail(1, "request %d: body differs from the spec's first response", i)
	default:
		out.verdict = slices.Index(verdicts, resp.Header.Get(api.ResultHeader))
		if out.verdict < 0 {
			r.Fail(1, "request %d: result header %q", i, resp.Header.Get(api.ResultHeader))
		}
	}
	return out
}

// digest checks that every manifest survives a decode/encode round trip
// byte for byte, and hashes (key, result, telemetry) in key order. It
// returns "" when some spec got no good response.
func (s *svcSession) digest(r *Result, bodies [][]byte) string {
	type entry struct{ key, line string }
	entries := make([]entry, 0, len(bodies))
	for i, body := range bodies {
		if body == nil {
			return ""
		}
		m, err := service.DecodeManifest(body)
		if err == nil {
			var again []byte
			if again, err = service.EncodeManifest(m); err == nil && !bytes.Equal(again, body) {
				err = fmt.Errorf("re-encoded manifest differs")
			}
		}
		if err != nil {
			r.Fail(1, "spec %d: %v", i, err)
			return ""
		}
		res, _ := json.Marshal(m.Result)
		tel, _ := json.Marshal(m.Telemetry)
		entries = append(entries, entry{m.Key, m.Key + "\n" + string(res) + "\n" + string(tel) + "\n"})
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	var all strings.Builder
	for _, e := range entries {
		all.WriteString(e.line)
	}
	return digestOf([]byte(all.String()))
}

// scrape reads the daemon's phase histograms and cache counters after a
// traced pass.
func (s *svcSession) scrape(r *Result, srv *liveServer) {
	r.Attempted++
	text, err := srv.get(s.client, "/metrics")
	var stats api.StatsSnapshot
	if err == nil {
		var raw []byte
		if raw, err = srv.get(s.client, "/v1/stats"); err == nil {
			err = json.Unmarshal(raw, &stats)
		}
	}
	if err != nil {
		r.Fail(1, "service scrape: %v", err)
		return
	}
	sum, count := map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		phase, found := strings.CutPrefix(name, `tlacached_job_phase_seconds_sum{phase="`)
		into := sum
		if !found {
			phase, found = strings.CutPrefix(name, `tlacached_job_phase_seconds_count{phase="`)
			into = count
		}
		if v, err := strconv.ParseFloat(value, 64); ok && found && err == nil {
			into[strings.TrimSuffix(phase, `"}`)] = v
		}
	}
	s.phases = map[string]float64{}
	for phase := range sum {
		s.phases[phase] = ratio(sum[phase], count[phase])
	}
	s.stats = stats.Cache
}

func (s *svcSession) report(r *Result) {
	total := 0.0
	for _, w := range s.walls {
		total += w
	}
	r.Add("sim_ns_per_instr", slices.Min(s.walls)*1e9/(float64(len(s.stream.specs))*s.work), "ns")
	r.Add("op_p50_ms", slices.Min(s.p50s)*1e3, "ms")
	r.Add("req_per_s", float64(s.requests)/total, "1/s")
	for _, c := range []struct {
		verdict int
		name    string
		scale   float64
		unit    string
	}{{0, "hit", 1e6, "us"}, {1, "miss", 1e3, "ms"}} {
		lat := s.byClass[c.verdict]
		r.Add(c.name+"_p50_"+c.unit, Median(lat)*c.scale, c.unit)
		if p := TailPercentile(len(lat)); p > 50 {
			r.Add(fmt.Sprintf("%s_p%g_%s", c.name, p, c.unit), Percentile(lat, p)*c.scale, c.unit)
		}
	}
	r.Add("api.coalesced", float64(len(s.byClass[2])), "count")
}

func (s *svcSession) layers(r *Result, tr *tracer) {
	s.setupLayers(r)
	s.traceOnce(r, tr)
	r.Add("api.phase_cache_lookup_us", s.phases["cache_lookup"]*1e6, "us")
	r.Add("api.phase_simulate_ms", s.phases["simulate"]*1e3, "ms")
	r.Add("api.phase_encode_ms", s.phases["encode"]*1e3, "ms")
	r.Add("api.phase_admission_wait_ms", s.phases["admission_wait"]*1e3, "ms")
	st := s.stats
	r.Add("cache.mem_hit_ratio", ratio(float64(st.MemHits), float64(st.MemHits+st.DiskHits+st.Misses)), "ratio")
	r.Add("cache.disk_hits", float64(st.DiskHits), "count")
	r.Add("cache.puts", float64(st.Puts), "count")
	r.Add("cache.mem_evictions", float64(st.MemEvictions), "count")
}

func (s *svcSession) close() {
	if s.next != nil {
		s.next.stop() //nolint:errcheck // nothing ran on it
	}
	s.client.CloseIdleConnections()
}
