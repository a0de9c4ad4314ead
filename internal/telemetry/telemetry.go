// Package telemetry is the simulator's low-overhead instrumentation
// layer. One Recorder observes one run: it summarises the
// temporal-locality events the paper's evaluation revolves around
// (inclusion victims, back-invalidations, ECI early-invalidates and
// rescue hits, QBS queries) for run manifests, turns the run into
// per-core interval time series (internal/sim feeds it), and forwards
// LLC victim decisions to an optional DecisionTracer. A live
// pprof/expvar debug endpoint profiles long parallel sweeps.
//
// Most event counts are the hierarchy's own counters, copied in once
// when the run ends (Finish); the recorder itself observes only what
// no counter holds: ECI rescue distances and QBS query depths. The
// layer is strictly opt-in: a nil *Recorder is a valid, disabled
// recorder whose every method does nothing, so a run without telemetry
// pays one nil branch per already-rare call site (all on miss or
// invalidation paths, never on the L1 hit path).
package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Event names one telemetry event kind, used as the key of count
// summaries.
type Event uint8

// The event kinds.
const (
	EvInclusionVictim   Event = iota // an LLC back-invalidation removed a core's valid line
	EvL2InclusionVictim              // an inclusive private L2's eviction removed a valid L1 line
	EvBackInvalidate                 // one back-invalidate message (directory-filtered)
	EvECIInvalidate                  // ECI early-invalidated the next LLC victim from the cores
	EvECIRescue                      // a demand hit on a line ECI had early-invalidated
	EvQBSQuery                       // one QBS victim query
	EvQBSSave                        // a QBS query that found the candidate resident
	EvTLHHint                        // a core-cache hit delivered a temporal locality hint
	numEvents
)

// String names the event as it appears in summaries and manifests.
func (e Event) String() string {
	switch e {
	case EvInclusionVictim:
		return "inclusion_victim"
	case EvL2InclusionVictim:
		return "l2_inclusion_victim"
	case EvBackInvalidate:
		return "back_invalidate"
	case EvECIInvalidate:
		return "eci_invalidate"
	case EvECIRescue:
		return "eci_rescue"
	case EvQBSQuery:
		return "qbs_query"
	case EvQBSSave:
		return "qbs_save"
	case EvTLHHint:
		return "tlh_hint"
	default:
		return fmt.Sprintf("event(%d)", uint8(e))
	}
}

// Counts holds one count per event kind, indexed by Event.
type Counts [numEvents]uint64

// maxPendingRescues bounds the Recorder's map of ECI'd lines awaiting a
// rescue hit so a run that early-invalidates millions of distinct
// never-rescued lines cannot grow memory without limit.
const maxPendingRescues = 1 << 16

// Recorder is one run's telemetry: the event counts, a histogram of
// QBS query-chain depths (one observation per victim selection that
// queried), a histogram of ECI rescue distances (the number of ECI
// early-invalidations between a line's invalidation and its rescuing
// LLC hit — a proxy for how promptly the paper's "prompt re-reference"
// arrives), the interval samples, and the decision hook.
//
// Build one with NewRecorder and set Decisions and Sink before the run
// starts. The simulator calls a recorder synchronously from the single
// simulation goroutine of one run, so it needs no locking, but two
// concurrent runs must not share one.
type Recorder struct {
	// Decisions, when non-nil, receives one record per LLC victim
	// choice (see DecisionTracer).
	Decisions DecisionTracer
	// Sink, when non-nil, receives each Sample synchronously from the
	// simulation goroutine the moment it is observed, before the run
	// finishes — the live-streaming hook the tlacached daemon forwards
	// to event subscribers. A sink must not block: it runs on the
	// simulation's critical path, so forwarders should hand off to a
	// buffered channel and drop on overflow.
	Sink func(Sample)

	counts   Counts
	qbsDepth Histogram
	rescue   Histogram

	eciSeq  uint64            // ECI invalidations seen so far
	pending map[uint64]uint64 // ECI'd line -> eciSeq at invalidation

	every   uint64
	samples []Sample
	cursors []samplerCursor
}

// NewRecorder returns an empty recorder that samples every `every`
// committed instructions per core, or never for a zero interval.
func NewRecorder(every uint64) *Recorder {
	return &Recorder{every: every, pending: make(map[uint64]uint64)}
}

// ECIInvalidate records ECI early-invalidating addr from the core
// caches while retaining it in the LLC. A line already pending is
// re-stamped even when the map is full, so its rescue distance counts
// from its latest invalidation; only new lines are turned away.
func (r *Recorder) ECIInvalidate(addr uint64) {
	if r == nil {
		return
	}
	r.eciSeq++
	if len(r.pending) < maxPendingRescues {
		r.pending[addr] = r.eciSeq
	} else if _, ok := r.pending[addr]; ok {
		r.pending[addr] = r.eciSeq
	}
}

// ECIRescue records a demand access hitting an LLC line that ECI had
// early-invalidated — the prompt re-reference ECI bets on.
func (r *Recorder) ECIRescue(addr uint64) {
	if r == nil {
		return
	}
	r.counts[EvECIRescue]++
	if at, ok := r.pending[addr]; ok {
		r.rescue.Observe(r.eciSeq - at)
		delete(r.pending, addr)
	}
}

// QBSSelection records the number of queries one QBS victim selection
// spent; a selection that queried nothing is not an observation.
func (r *Recorder) QBSSelection(queries int) {
	if r == nil || queries == 0 {
		return
	}
	r.qbsDepth.Observe(uint64(queries))
}

// TracesDecisions reports whether Decision forwards records, so the
// hierarchy builds a record only when one is wanted.
func (r *Recorder) TracesDecisions() bool { return r != nil && r.Decisions != nil }

// Decision forwards one LLC victim choice to Decisions.
func (r *Recorder) Decision(d *Decision) {
	if r.TracesDecisions() {
		r.Decisions.Decision(d)
	}
}

// Finish records the end-of-window counts the hierarchy keeps itself
// (hierarchy.EventCounts); the ECI rescue count, which only the
// recorder observes, is kept. The simulator calls it once, when the
// run ends.
func (r *Recorder) Finish(c Counts) {
	if r == nil {
		return
	}
	c[EvECIRescue] = r.counts[EvECIRescue]
	r.counts = c
	for _, n := range c {
		probeEvents.Add(int64(n))
	}
}

// Summary is the JSON-ready digest of one recorder, embedded into run
// manifests by internal/runner.
type Summary struct {
	// Name identifies the run the recorder observed, e.g. "MIX_04/QBS".
	Name string `json:"name,omitempty"`
	// Events maps event names to counts; zero-count events are omitted.
	Events map[string]uint64 `json:"events"`
	// QBSQueryDepth summarises the queries-per-eviction distribution.
	QBSQueryDepth *HistogramSummary `json:"qbs_query_depth,omitempty"`
	// ECIRescueDistance summarises how many ECI invalidations separated
	// each early-invalidation from its rescuing LLC hit.
	ECIRescueDistance *HistogramSummary `json:"eci_rescue_distance,omitempty"`
}

// Summary digests the recorder's counts and histograms; a nil recorder
// digests to the zero Summary.
func (r *Recorder) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	s := Summary{Events: make(map[string]uint64)}
	for e, n := range r.counts {
		if n > 0 {
			s.Events[Event(e).String()] = n
		}
	}
	if h := r.qbsDepth.Summary(); h.Count > 0 {
		s.QBSQueryDepth = &h
	}
	if h := r.rescue.Summary(); h.Count > 0 {
		s.ECIRescueDistance = &h
	}
	return s
}

// Live introspection counters, published under /debug/vars by
// ServeDebug. They aggregate across every run in the process; the
// events-per-second gauge is the process-lifetime average.
var (
	jobsCompleted  = expvar.NewInt("tla_jobs_completed")
	instructionsUp = expvar.NewInt("tla_instructions_simulated")
	probeEvents    = expvar.NewInt("tla_probe_events")
	processStart   = time.Now()
)

func init() {
	expvar.Publish("tla_events_per_second", expvar.Func(func() interface{} {
		secs := time.Since(processStart).Seconds()
		if secs <= 0 {
			return 0.0
		}
		return float64(probeEvents.Value()) / secs
	}))
}

// JobDone records one completed simulation job and its simulated
// instruction count for live introspection; internal/runner calls it as
// each job finishes.
func JobDone(instructions uint64) {
	jobsCompleted.Add(1)
	instructionsUp.Add(int64(instructions))
}

// JobsCompleted returns the process-wide completed-job count.
func JobsCompleted() int64 { return jobsCompleted.Value() }

// InstructionsSimulated returns the process-wide simulated-instruction
// count across completed jobs.
func InstructionsSimulated() int64 { return instructionsUp.Value() }

// ServeDebug starts an HTTP server on addr exposing net/http/pprof
// under /debug/pprof/ and the process expvars (including the tla_*
// counters above) under /debug/vars. It returns the bound address —
// pass ":0" to pick a free port — and the serving *http.Server so the
// caller owns its lifetime: CLIs may let it run until process exit,
// while daemons and tests must Close (or Shutdown) it instead of
// leaking the listener.
func ServeDebug(addr string) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: debug server: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // ends via the caller's Close/Shutdown
	return ln.Addr().String(), srv, nil
}
