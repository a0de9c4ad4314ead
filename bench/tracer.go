package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tlacache/internal/sim"
	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

// Span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the traced phase began; Parent is 0 for a root.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects a traced phase's spans in memory, and the sim-layer
// samples of its traced simulations. It is safe for concurrent use.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []Span
	// Per traced simulation: sampled ns per generator Next, estimated
	// ns per instruction outside Next, and bytes allocated.
	nextNs, instrNs, allocBytes []float64
	last                        sim.MixResult
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh span ID.
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// record stores a finished span.
func (t *tracer) record(name string, id, parent uint64, start, end time.Time) {
	s := Span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// span opens a span and returns its ID and the function that closes it.
func (t *tracer) span(name string, parent uint64) (uint64, func()) {
	id, start := t.newID(), time.Now()
	return id, func() { t.record(name, id, parent, start, time.Now()) }
}

// write stores the spans as JSON lines at path, once tracing is over.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		enc.Encode(s) //nolint:errcheck // a Span always encodes, and a bytes.Buffer never fails
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("bench: spans: %w", err)
	}
	return nil
}

// sampled accumulates calls timed in place. A sample reads the clock
// three times, t0, t1 and t2, around one call: t1-t0 is the cost of a
// clock read under the same conditions as the call, which takes
// t2-t1 less that cost.
type sampled struct{ call, clock, n float64 }

func (s *sampled) add(t0, t1, t2 time.Time) {
	s.clock += float64(t1.Sub(t0).Nanoseconds())
	s.call += float64(t2.Sub(t1).Nanoseconds())
	s.n++
}

// mean is the estimated time per call in nanoseconds.
func (s *sampled) mean() float64 { return max(ratio(s.call-s.clock, s.n), 0) }

// overhead is the time the samples' clock reads took, in nanoseconds.
func (s *sampled) overhead() float64 { return 3 * s.clock }

// sampleMask selects the 1 in 64 calls a probe times; spanMask the 1 in
// 65536 generator calls also recorded as spans.
const (
	sampleMask = 63
	spanMask   = 1<<16 - 1
)

// timedGen wraps a generator and times a sample of its Next calls.
type timedGen struct {
	trace.Generator
	tr     *tracer
	parent uint64
	calls  uint64
	next   sampled
}

func (g *timedGen) Next(in *trace.Instr) {
	g.calls++
	if g.calls&sampleMask != 0 {
		g.Generator.Next(in)
		return
	}
	t0, t1 := time.Now(), time.Now()
	g.Generator.Next(in)
	t2 := time.Now()
	g.next.add(t0, t1, t2)
	if g.calls&spanMask == 0 {
		g.tr.record("trace.next", g.tr.newID(), g.parent, t1, t2)
	}
}

// runTraced simulates mix through sim.RunGenerators with every stream
// wrapped in a timedGen. The streams are the ones sim.RunMix builds, so
// the result must equal RunMix's for the same config and mix.
func (t *tracer) runTraced(cfg sim.Config, mix workload.Mix, parent uint64) (sim.MixResult, float64, error) {
	id, done := t.span("sim.run", parent)
	defer done()
	bs, err := mix.Benchmarks()
	if err != nil {
		return sim.MixResult{}, 0, err
	}
	gens := make([]*timedGen, len(bs))
	streams := make([]trace.Generator, len(bs))
	for i, b := range bs {
		// sim.RunMix seeds core i's stream with Seed + i*0x9e37.
		g, err := b.NewGenerator(cfg.Seed + uint64(i)*0x9e37)
		if err != nil {
			return sim.MixResult{}, 0, err
		}
		gens[i] = &timedGen{Generator: g, tr: t, parent: id}
		streams[i] = gens[i]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := sim.RunGenerators(cfg, streams)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return res, 0, err
	}
	res.Mix = mix

	// calls counts every simulated instruction, including those fast
	// cores execute past their budget.
	var calls float64
	var next sampled
	for _, g := range gens {
		calls += float64(g.calls)
		next.call, next.clock, next.n = next.call+g.next.call, next.clock+g.next.clock, next.n+g.next.n
	}
	// Host time outside Next: the wall less the estimated time in Next
	// and in the sampling clock reads.
	rest := float64(wall.Nanoseconds()) - next.mean()*calls - next.overhead()
	t.mu.Lock()
	t.nextNs = append(t.nextNs, next.mean())
	t.instrNs = append(t.instrNs, rest/calls)
	t.allocBytes = append(t.allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
	t.last = res
	t.mu.Unlock()
	return res, wall.Seconds(), nil
}

// simLayers adds the sim-layer and modelled-hierarchy metrics of the
// traced simulations. The hierarchy counts are per kilo measured
// instruction; traffic counters cover the whole measured window,
// including fast cores' execution past their budget.
func (t *tracer) simLayers(r *Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.Add("trace.next_ns", Median(t.nextNs), "ns")
	r.Add("sim.instr_ns_excl_trace", Median(t.instrNs), "ns")
	r.Add("sim.alloc_bytes_per_rep", Median(t.allocBytes), "B")
	res := t.last
	var instr uint64
	for _, a := range res.Apps {
		instr += a.Instructions
	}
	pki := func(n uint64) float64 { return ratio(float64(n)*1000, float64(instr)) }
	tr := res.Traffic
	r.Add("hierarchy.llc_mpki", pki(res.LLCMisses), "pki")
	r.Add("hierarchy.back_invalidates_pki", pki(tr.BackInvalidates), "pki")
	r.Add("hierarchy.inclusion_victims_pki", pki(res.InclusionVictims), "pki")
	r.Add("hierarchy.snoops_pki", pki(tr.CoherenceSnoops), "pki")
	r.Add("hierarchy.qbs_queries_per_llc_miss", ratio(float64(tr.QBSQueries), float64(res.LLCMisses)), "ratio")
	r.Add("hierarchy.qbs_save_ratio", ratio(float64(tr.QBSSaves), float64(tr.QBSQueries)), "ratio")
	r.Add("prefetch.fill_ratio", ratio(float64(tr.PrefetchFills), float64(tr.PrefetchIssued)), "ratio")
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// startProfile starts a CPU profile in dir. Its stop function ends the
// profile and splits the profile's self time by module.
func startProfile(dir string) (func() (map[string]float64, error), error) {
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		defer os.Remove(f.Name())
		if err := f.Close(); err != nil {
			return nil, err
		}
		out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", f.Name()).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: %w", err)
		}
		return selfShares(string(out)), nil
	}, nil
}

// selfShares buckets the flat (self) percentages of `go tool pprof
// -top` output by module: a tlacache/internal/<module> package, the Go
// runtime, or other.
func selfShares(top string) map[string]float64 {
	shares := make(map[string]float64, len(selfShareModules))
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue // the column header
		}
		shares[moduleOf(f[5])] += flat / 100
	}
	return shares
}

// moduleOf maps a profiled function name to its self-share bucket.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "tlacache/internal/"); ok {
		m, _, _ := strings.Cut(rest, "/")
		m, _, _ = strings.Cut(m, ".")
		for _, known := range selfShareModules {
			if m == known {
				return m
			}
		}
		return "other"
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/"} {
		if strings.HasPrefix(fn, p) {
			return "runtime_gc"
		}
	}
	return "other"
}
