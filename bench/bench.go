// Package bench is tlacache's benchmark of record. It drives the
// simulator and the daemon from outside, through their public
// functions only, on four fixed workloads; it times each run end to
// end, checks that every output is correct, and in a traced run splits
// the time into layers. cmd/tlabench runs each workload in a fresh
// process and prints the results.
package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Options control one run of one workload.
type Options struct {
	// Seed generates the workload's inputs; the same seed gives the
	// same inputs and therefore the same output digest.
	Seed uint64
	// Seconds is the measurement window. Passes of fixed work repeat
	// while the next one is expected to end inside it; at least one
	// pass always runs. A traced run gives half the window to untraced
	// passes and half to traced ones.
	Seconds float64
	// Traced adds the per-layer measurements: traced passes under a CPU
	// profile, spans, and the layer probes.
	Traced bool
	// Quick shrinks every workload to a smoke-test size.
	Quick bool
	// SetupOnly returns right after set-up, which is all a set-up
	// timing needs.
	SetupOnly bool
	// TempDir holds the daemon's disk tier and the CPU profile.
	TempDir string
	// SpanPath, when set, receives a traced run's spans as JSON lines.
	SpanPath string
}

// Metric is one measured value.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload measured and checked.
type Result struct {
	Workload string `json:"workload"`
	// SetupSeconds runs from the call of Run to the start of the timed
	// phase.
	SetupSeconds float64 `json:"setup_s"`
	// Attempted counts operations: Figure 8 cells, repetitions, HTTP
	// requests, and the extra checks and probes of a traced run.
	Attempted int `json:"attempted"`
	// Failed counts operations that erred or produced wrong output.
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"`
	// Digest is the SHA-256 of the workload's deterministic output,
	// identical for every pass of a run (see Golden).
	Digest  string   `json:"digest"`
	Metrics []Metric `json:"metrics"`

	mu sync.Mutex // guards Failed and Failures for concurrent clients
}

// Add records a metric.
func (r *Result) Add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{name, value, unit})
}

// Fail counts n failed operations, keeping the first few messages. It
// is safe for concurrent use.
func (r *Result) Fail(n int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed += n
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// Metric returns the named metric.
func (r *Result) Metric(name string) (Metric, bool) {
	i := slices.IndexFunc(r.Metrics, func(m Metric) bool { return m.Name == name })
	if i < 0 {
		return Metric{}, false
	}
	return r.Metrics[i], true
}

// EndToEnd names the metrics an untraced run reports on every
// workload, in BENCHMARK.json order. tlabench adds setup_s and
// peak_rss_mb, which it measures from outside the workload's process.
var EndToEnd = []string{"setup_s", "peak_rss_mb", "sim_ns_per_instr", "op_p50_ms"}

// selfShareModules are the buckets of the CPU-profile split: the
// simulator's modules by package path, the Go runtime, and the rest.
var selfShareModules = []string{"sim", "hierarchy", "cache", "replacement", "prefetch", "cpu",
	"trace", "runner", "experiments", "service", "telemetry", "runtime_gc", "other"}

// PerLayer names the metrics a traced run reports on every workload,
// in BENCHMARK.json order.
var PerLayer = func() []string {
	names := []string{"trace.next_ns", "sim.instr_ns_excl_trace", "sim.setup_cold_ms",
		"sim.setup_warm_ms", "sim.alloc_bytes_per_rep"}
	for _, m := range selfShareModules {
		names = append(names, m+".self_share")
	}
	return append(names,
		"hierarchy.llc_mpki", "hierarchy.back_invalidates_pki", "hierarchy.inclusion_victims_pki",
		"hierarchy.snoops_pki", "hierarchy.qbs_queries_per_llc_miss", "hierarchy.qbs_save_ratio",
		"prefetch.fill_ratio",
		"cache.lookup_fill_ns.lru8", "cache.lookup_fill_ns.lru32", "cache.lookup_fill_ns.nru16",
		"cache.lookup_fill_ns.srrip16",
		"hierarchy.ifetch_memo_hit_ratio", "hierarchy.access_ns.ifetch", "hierarchy.access_ns.data",
		"cpu.instr_ns", "service.key_us", "service.encode_us", "trace_overhead")
}()

// Workload is one benchmark input set.
type Workload struct {
	Name string
	// Why records what the workload stresses that the others do not.
	Why   string
	start func(o Options) (session, error)
}

// session is a set-up workload, ready to run passes.
type session interface {
	// pass runs one unit of fixed work; tr is nil in untraced passes.
	// It records failed operations on r.
	pass(r *Result, tr *tracer) passOut
	// report adds the workload's metrics from its untraced passes. The
	// end-to-end host-time metrics come from the run's best pass: on a
	// shared host, slow spells last tens of seconds and slow every pass
	// inside them, so the best pass is the stable estimate of the
	// program's own speed.
	report(r *Result)
	// layers adds the traced run's per-layer metrics.
	layers(r *Result, tr *tracer)
	close()
}

// passOut is one pass's outcome.
type passOut struct {
	wall   float64 // seconds
	ops    int
	digest string // empty when the pass failed
}

// Workloads lists the benchmark's workloads in run order.
func Workloads() []Workload {
	return []Workload{
		{"figure8-sweep", "regenerates Figure 8 (84 cells) as a paper reproducer does; the only workload where runner fan-out and pool reuse matter", startSweep},
		{"qbs-2core-long", "one long QBS run of MIX_10 (LLCT+CCF): host time goes to the hot path, QBS victim selection and prefetch", startQBSLong},
		{"ni-8core-long", "8-core non-inclusive run with TLA off: stresses the interleave and a larger line state, and bypasses TLA", startNI8Long},
		{"service-mixed", "tlacached over loopback HTTP: Zipf repeats hit memory or disk beside first-time misses that simulate", startService},
	}
}

// Run sets up the named workload, measures it for the window, and
// checks its outputs.
func Run(name string, o Options) (*Result, error) {
	i := slices.IndexFunc(Workloads(), func(w Workload) bool { return w.Name == name })
	if i < 0 {
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
	start := time.Now()
	r := &Result{Workload: name}
	s, err := Workloads()[i].start(o)
	if err != nil {
		return nil, fmt.Errorf("bench: %s set-up: %w", name, err)
	}
	defer s.close()
	r.SetupSeconds = time.Since(start).Seconds()
	if o.SetupOnly {
		return r, nil
	}
	defer checkGolden(r, o)
	if !o.Traced {
		runPasses(r, s, nil, o.Seconds)
		s.report(r)
		return r, nil
	}

	untraced := runPasses(r, s, nil, o.Seconds/2)
	s.report(r)
	tr := newTracer()
	stop, err := startProfile(o.TempDir)
	if err != nil {
		return nil, err
	}
	traced := runPasses(r, s, tr, o.Seconds/2)
	shares, err := stop()
	r.Attempted++
	if err != nil {
		r.Fail(1, "cpu profile: %v", err)
	}
	for _, m := range selfShareModules {
		r.Add(m+".self_share", shares[m], "ratio")
	}
	r.Add("trace_overhead", slices.Min(traced)/slices.Min(untraced), "ratio")
	s.layers(r, tr)
	probeLayers(o, r)
	if o.SpanPath != "" {
		if err := tr.write(o.SpanPath); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runPasses runs passes until the window closes and returns their wall
// times. Every pass's digest must match the run's first.
func runPasses(r *Result, s session, tr *tracer, window float64) []float64 {
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+Median(walls) <= window {
		out := s.pass(r, tr)
		r.Attempted += out.ops
		walls = append(walls, out.wall)
		switch {
		case out.digest == "":
		case r.Digest == "":
			r.Digest = out.digest
		case out.digest != r.Digest:
			r.Fail(out.ops, "pass %d: digest %s differs from the run's first %s", len(walls), out.digest, r.Digest)
		}
	}
	return walls
}

// checkGolden fails the run when a digest is recorded for its
// workload, seed and size and the run's digest differs.
func checkGolden(r *Result, o Options) {
	if want, ok := Golden(GoldenKey(r.Workload, o.Seed, o.Quick)); ok && r.Digest != want {
		r.Fail(1, "digest %s differs from golden %s", r.Digest, want)
	}
}

// digestOf returns the hex SHA-256 of data.
func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
