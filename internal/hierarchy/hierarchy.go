// Package hierarchy implements the paper's primary contribution: a
// multi-level CMP cache hierarchy whose shared last-level cache (LLC)
// can run as inclusive, non-inclusive, or exclusive, and — when
// inclusive — can be managed with the three Temporal Locality Aware
// (TLA) policies the paper proposes:
//
//   - Temporal Locality Hints (TLH): core-cache hits send a non-data
//     hint that promotes the line's LLC replacement state.
//   - Early Core Invalidation (ECI): on an LLC miss, the next potential
//     victim is invalidated early from the core caches while staying in
//     the LLC; a prompt re-reference hits the LLC and refreshes its
//     replacement state.
//   - Query Based Selection (QBS): before evicting, the LLC queries the
//     core caches; victims resident in a core cache are promoted to MRU
//     instead of evicted, and the next candidate is tried.
//
// The hierarchy models the paper's baseline: per-core L1I/L1D and a
// private unified non-inclusive L2, a shared LLC, a stream prefetcher
// that trains on L2 misses, and a directory (presence bits) on LLC
// lines that filters back-invalidate traffic as in the Intel Core i7.
package hierarchy

import (
	"fmt"

	"tlacache/internal/cache"
	"tlacache/internal/prefetch"
	"tlacache/internal/replacement"
	"tlacache/internal/telemetry"
)

// InclusionMode selects the LLC's relationship to the core caches.
// Switches over it must name every mode (TestSwitchesAreExhaustive):
// the inclusive/non-inclusive/exclusive split is the paper's central
// axis, and a mode silently absorbed by a default arm is exactly the
// bug class the test exists for.
type InclusionMode uint8

const (
	// Inclusive enforces that core-cache contents are a subset of the
	// LLC: every LLC eviction back-invalidates the core caches.
	Inclusive InclusionMode = iota
	// NonInclusive drops the subset requirement: LLC evictions send no
	// back-invalidates (exactly how the paper models non-inclusion).
	NonInclusive
	// Exclusive keeps LLC contents disjoint from the core caches:
	// fills go to the core caches first, LLC hits invalidate the LLC
	// copy, and L2 evictions (clean or dirty) insert into the LLC.
	Exclusive
)

// String names the inclusion mode.
func (m InclusionMode) String() string {
	switch m {
	case Inclusive:
		return "inclusive"
	case NonInclusive:
		return "non-inclusive"
	case Exclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("InclusionMode(%d)", uint8(m))
	}
}

// TLAPolicy selects the temporal-locality-aware management policy.
// Switches over it must name every policy (TestSwitchesAreExhaustive).
type TLAPolicy uint8

const (
	// TLANone is the unmanaged baseline.
	TLANone TLAPolicy = iota
	// TLATLH sends temporal locality hints from core-cache hits.
	TLATLH
	// TLAECI performs early core invalidation of the next LLC victim.
	TLAECI
	// TLAQBS performs query based victim selection.
	TLAQBS
)

// String names the TLA policy.
func (p TLAPolicy) String() string {
	switch p {
	case TLANone:
		return "none"
	case TLATLH:
		return "TLH"
	case TLAECI:
		return "ECI"
	case TLAQBS:
		return "QBS"
	default:
		return fmt.Sprintf("TLAPolicy(%d)", uint8(p))
	}
}

// CacheSet is a bitmask naming core-cache levels. TLH uses it to choose
// which caches send hints; QBS uses it to choose which caches a query
// consults.
type CacheSet uint8

const (
	// IL1 is the per-core instruction cache.
	IL1 CacheSet = 1 << iota
	// DL1 is the per-core data cache.
	DL1
	// L2C is the per-core unified second-level cache.
	L2C
)

// Convenience sets matching the paper's policy variants.
const (
	L1Caches  = IL1 | DL1
	AllCaches = IL1 | DL1 | L2C
)

// String renders the set as e.g. "IL1+DL1".
func (s CacheSet) String() string {
	if s == 0 {
		return "none"
	}
	out := ""
	add := func(name string) {
		if out != "" {
			out += "+"
		}
		out += name
	}
	if s&IL1 != 0 {
		add("IL1")
	}
	if s&DL1 != 0 {
		add("DL1")
	}
	if s&L2C != 0 {
		add("L2")
	}
	return out
}

// AccessKind classifies a demand access.
type AccessKind uint8

const (
	// IFetch is an instruction fetch.
	IFetch AccessKind = iota
	// Load is a data read.
	Load
	// Store is a data write (write-allocate).
	Store
)

// Level identifies where in the hierarchy an access was satisfied.
// Switches over it must name every level (TestSwitchesAreExhaustive).
type Level uint8

const (
	// LevelL1 means the access hit in the L1 (I or D).
	LevelL1 Level = iota + 1
	// LevelL2 means the access hit in the private L2.
	LevelL2
	// LevelLLC means the access hit in the shared LLC.
	LevelLLC
	// LevelVictimCache means the access hit the optional LLC victim cache.
	LevelVictimCache
	// LevelMemory means the access went to main memory.
	LevelMemory
)

// Latencies holds load-to-use latencies in cycles.
type Latencies struct {
	L1     uint64
	L2     uint64
	LLC    uint64
	Memory uint64
}

// DefaultLatencies mirrors the paper's Core i7-based baseline:
// 1 / 10 / 24 cycle load-to-use and a 150-cycle memory penalty.
func DefaultLatencies() Latencies { return Latencies{L1: 1, L2: 10, LLC: 24, Memory: 150} }

// Config describes a complete hierarchy. DefaultConfig supplies the
// paper's baseline; tests and experiments tweak single fields.
type Config struct {
	Cores    int
	LineSize int64

	L1ISize  int64
	L1IAssoc int
	L1DSize  int64
	L1DAssoc int
	L2Size   int64
	L2Assoc  int
	LLCSize  int64
	LLCAssoc int

	L1Policy  replacement.Kind // LRU in the paper
	L2Policy  replacement.Kind // LRU in the paper
	LLCPolicy replacement.Kind // NRU in the paper

	Inclusion InclusionMode
	TLA       TLAPolicy

	// TLHSources selects which caches send hints under TLATLH.
	// TLHPerMille sends hints for only that fraction of hits (1000 =
	// every hit), implementing the paper's hint-filtering sensitivity
	// study; sampling is a deterministic counter, not randomness.
	TLHSources  CacheSet
	TLHPerMille int

	// QBSProbe selects which caches a QBS query consults; QBSMaxQueries
	// bounds queries per miss (0 means the LLC associativity, which is
	// effectively unlimited — the paper shows saturation by 2–4).
	QBSProbe      CacheSet
	QBSMaxQueries int
	// QBSEvictSaved selects the paper's "modified QBS" (footnote 6):
	// a query that finds the candidate resident still promotes it in
	// the LLC but also invalidates it from the core caches, like ECI.
	// The paper finds it performs like plain QBS, proving QBS's benefit
	// is avoiding memory latency rather than core-cache hit latency.
	QBSEvictSaved bool

	// L2Inclusive makes each private L2 inclusive of its core's L1s
	// (the paper's footnote 3 discusses this design point): L2
	// evictions back-invalidate the L1s. L2QBS additionally applies
	// query based selection at the L2 — L2 victim candidates resident
	// in an L1 are promoted instead of evicted — which is the footnote's
	// "TLA policies can be applied at the L2 cache" remedy.
	L2Inclusive bool
	L2QBS       bool

	// EnablePrefetch turns on the per-core stream prefetcher (trains on
	// L2 demand misses, fills the L2). Prefetcher geometry follows
	// prefetch.Config defaults unless PrefetchConfig is set.
	EnablePrefetch bool
	PrefetchConfig prefetch.Config

	// VictimCacheEntries, when positive, attaches a fully-associative
	// victim cache of that many lines to the LLC (the related-work
	// comparison in the paper's §VI uses 32 entries).
	VictimCacheEntries int

	// BroadcastInvalidate disables the LLC's per-line presence
	// (directory) filter: back-invalidations, ECI invalidations, and
	// QBS queries are sent to every core instead of only the cores the
	// directory names. Functionally identical on private workloads but
	// multiplies message traffic — the ablation for the Core i7-style
	// directory the paper's footnote 1 assumes.
	BroadcastInvalidate bool

	// LLCBanks, when positive, models a banked LLC: demand accesses to
	// a busy bank queue behind it (BankOccupancy cycles per access,
	// default 2). The paper assumes "a banked LLC with as many banks as
	// there are cores" behind a fixed average latency; the default here
	// (0, unbanked) matches that fixed-latency model, and enabling
	// banks refines it. Callers must then use AccessAt with real clock
	// values for the queueing to be meaningful (internal/sim does).
	LLCBanks      int
	BankOccupancy uint64

	Latency Latencies
}

// DefaultConfig returns the paper's baseline 2-core configuration
// scaled to the requested core count: 32KB 4-way L1I and L1D, 256KB
// 8-way L2 (LRU), and a shared 16-way inclusive NRU LLC of 1MB per core
// (2MB for the 2-core baseline).
func DefaultConfig(cores int) Config {
	return Config{
		Cores:    cores,
		LineSize: 64,
		L1ISize:  32 << 10, L1IAssoc: 4,
		L1DSize: 32 << 10, L1DAssoc: 4,
		L2Size: 256 << 10, L2Assoc: 8,
		LLCSize: int64(cores) << 20, LLCAssoc: 16,
		L1Policy:   replacement.LRU,
		L2Policy:   replacement.LRU,
		LLCPolicy:  replacement.NRU,
		Inclusion:  Inclusive,
		TLA:        TLANone,
		TLHSources: L1Caches, TLHPerMille: 1000,
		QBSProbe: AllCaches,
		Latency:  DefaultLatencies(),
	}
}

// Shape returns c with zeros in every field the hierarchy reads only
// while accesses run: the inclusion mode, the TLA policy and its
// parameters, the inclusive-L2 options, broadcast invalidation, the
// bank occupancy and the latencies. The fields it keeps size the
// hierarchy's state, so two configs of one shape build identical
// arrays, and Reset can move a hierarchy between them.
func (c Config) Shape() Config {
	c.Inclusion, c.TLA = 0, 0
	c.TLHSources, c.TLHPerMille = 0, 0
	c.QBSProbe, c.QBSMaxQueries, c.QBSEvictSaved = 0, 0, false
	c.L2Inclusive, c.L2QBS = false, false
	c.BroadcastInvalidate = false
	c.BankOccupancy = 0
	c.Latency = Latencies{}
	return c
}

// Validate reports the first configuration problem.
func (c *Config) Validate() error {
	if c.Cores <= 0 || c.Cores > 64 {
		// The hard upper bound is structural: LLC directory presence
		// masks are single uint64 bitmaps (one bit per core), and a 65th
		// core's presence bit would silently shift out of range.
		return fmt.Errorf("hierarchy: %d cores out of range [1,64] (presence masks are 64-bit bitmaps)", c.Cores)
	}
	if c.TLHPerMille < 0 || c.TLHPerMille > 1000 {
		return fmt.Errorf("hierarchy: TLHPerMille %d out of range", c.TLHPerMille)
	}
	if c.QBSMaxQueries < 0 {
		return fmt.Errorf("hierarchy: QBSMaxQueries %d negative", c.QBSMaxQueries)
	}
	if c.VictimCacheEntries < 0 {
		return fmt.Errorf("hierarchy: VictimCacheEntries %d negative", c.VictimCacheEntries)
	}
	if c.TLA == TLATLH && c.TLHSources == 0 {
		return fmt.Errorf("hierarchy: TLH enabled with no source caches")
	}
	if c.TLA == TLAQBS && c.QBSProbe == 0 {
		return fmt.Errorf("hierarchy: QBS enabled with no probe caches")
	}
	if c.QBSEvictSaved && c.TLA != TLAQBS {
		return fmt.Errorf("hierarchy: QBSEvictSaved requires the QBS policy")
	}
	if c.L2QBS && !c.L2Inclusive {
		return fmt.Errorf("hierarchy: L2QBS requires an inclusive L2")
	}
	if c.L2Inclusive && c.Inclusion == Exclusive {
		return fmt.Errorf("hierarchy: inclusive L2 with an exclusive LLC is not modeled")
	}
	if c.Latency.Memory == 0 {
		return fmt.Errorf("hierarchy: zero memory latency")
	}
	if c.LLCBanks < 0 {
		return fmt.Errorf("hierarchy: LLCBanks %d negative", c.LLCBanks)
	}
	return nil
}

// LevelStats counts demand traffic at one cache level for one core.
// Prefetch, hint, and invalidation traffic is accounted separately in
// Traffic; these are the counters MPKI is computed from, matching the
// paper's Table I.
type LevelStats struct {
	Accesses uint64
	Misses   uint64
}

// Hits returns Accesses - Misses.
func (s LevelStats) Hits() uint64 { return s.Accesses - s.Misses }

// CoreStats aggregates one core's demand behaviour.
type CoreStats struct {
	L1I LevelStats
	L1D LevelStats
	L2  LevelStats
	LLC LevelStats
	// InclusionVictims counts valid lines removed from this core's
	// caches by LLC back-invalidations (the harmful events the paper
	// studies). ECI's deliberate early invalidations are counted in
	// Traffic.ECIInvalidated instead.
	InclusionVictims uint64
	// L2InclusionVictims counts valid L1 lines removed because the
	// core's inclusive L2 (Config.L2Inclusive) evicted their line.
	L2InclusionVictims uint64
}

// Traffic counts hierarchy-global message and bandwidth events.
type Traffic struct {
	TLHSent          uint64 // temporal locality hints delivered to the LLC
	ECISent          uint64 // early-invalidate operations initiated
	ECIInvalidated   uint64 // valid core-cache lines removed by ECI
	QBSQueries       uint64 // queries sent to core caches
	QBSSaves         uint64 // queries that found the line resident (promoted)
	BackInvalidates  uint64 // back-invalidate messages (directory-filtered)
	WritebacksToMem  uint64 // dirty lines written to memory
	MemoryReads      uint64 // demand + prefetch line fetches from memory
	PrefetchIssued   uint64 // prefetch requests generated
	PrefetchFills    uint64 // prefetch lines installed in the L2
	VictimCacheHits  uint64 // LLC misses satisfied by the victim cache
	VictimCacheFills uint64 // lines inserted into the victim cache

	L2BackInvalidates uint64 // L1 back-invalidate messages from inclusive L2s
	L2QBSQueries      uint64 // L1 queries issued by QBS at the L2
	L2QBSSaves        uint64 // L2 victim candidates saved by an L1 query

	// BankConflictCycles accumulates the queueing delay charged by the
	// banked-LLC model (Config.LLCBanks).
	BankConflictCycles uint64

	// CoherenceSnoops counts the cross-core snoop messages an LLC miss
	// must broadcast when the LLC is NOT a guaranteed superset of the
	// core caches (non-inclusive and exclusive modes): the line might
	// be in another core's cache, so every other core is probed. An
	// inclusive LLC's miss proves the line is nowhere on chip — the
	// "natural snoop filter" benefit the paper's TLA policies preserve
	// and non-inclusion gives up.
	CoherenceSnoops uint64
}

// Hierarchy is a complete simulated cache hierarchy. Not safe for
// concurrent use: the simulator is single-goroutine for determinism.
type Hierarchy struct {
	cfg Config

	l1i []*cache.Cache
	l1d []*cache.Cache
	l2  []*cache.Cache
	llc *cache.Cache

	pf  []*prefetch.Streamer
	vc  *victimCache
	buf []uint64 // scratch for prefetch addresses

	hintClock uint64 // deterministic TLH sampling counter
	tlhOn     bool   // cfg.TLA == TLATLH, hoisted out of the L1-hit path
	memoOn    bool   // L1I hits send no hint, so the ifetch memo may replay them

	// lastILine memoizes, per core, the L1I line of the most recent
	// instruction fetch when that fetch hit. Sequential code re-fetches
	// the same line many times in a row, and a memo hit is a repeat of
	// an access whose side effects (replacement touch) have already been
	// applied and are idempotent, so the whole L1I path can be skipped.
	// Entries hold noILine when no memo is armed. TLH with IL1 among its
	// hint sources never arms one, because its L1I hits must still
	// deliver hints; under any other configuration an L1I hit sends no
	// hint, so a memo hit is exactly an L1I hit.
	lastILine []uint64

	bankFree      []uint64 // per-bank next-free cycle (LLCBanks > 0)
	bankOccupancy uint64   // cycles an LLC access holds its bank

	// tel is the run's telemetry recorder, nil when the run has none
	// (every Recorder method is a no-op on nil). dec is the reusable
	// decision record, filled only when tel traces decisions; New
	// allocates its Candidates buffer so traced decisions allocate
	// nothing on the hot path.
	tel *telemetry.Recorder
	dec telemetry.Decision

	Cores   []CoreStats
	Traffic Traffic
}

// New builds a hierarchy from cfg, validating the configuration and
// every cache geometry.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{Cores: make([]CoreStats, cfg.Cores)}
	h.configure(cfg)
	h.dec.Candidates = make([]telemetry.DecisionCandidate, cfg.LLCAssoc)
	h.lastILine = make([]uint64, cfg.Cores)
	h.clearIFetchMemos()
	mk := func(name string, size int64, assoc int, pol replacement.Kind) (*cache.Cache, error) {
		return cache.New(cache.Config{Name: name, Size: size, Assoc: assoc, LineSize: cfg.LineSize, Policy: pol})
	}
	for c := 0; c < cfg.Cores; c++ {
		i1, err := mk(fmt.Sprintf("L1I[%d]", c), cfg.L1ISize, cfg.L1IAssoc, cfg.L1Policy)
		if err != nil {
			return nil, err
		}
		d1, err := mk(fmt.Sprintf("L1D[%d]", c), cfg.L1DSize, cfg.L1DAssoc, cfg.L1Policy)
		if err != nil {
			return nil, err
		}
		l2, err := mk(fmt.Sprintf("L2[%d]", c), cfg.L2Size, cfg.L2Assoc, cfg.L2Policy)
		if err != nil {
			return nil, err
		}
		h.l1i = append(h.l1i, i1)
		h.l1d = append(h.l1d, d1)
		h.l2 = append(h.l2, l2)
		if cfg.EnablePrefetch {
			pfc := cfg.PrefetchConfig
			if pfc.LineSize == 0 {
				pfc.LineSize = cfg.LineSize
			}
			pf, err := prefetch.New(pfc)
			if err != nil {
				return nil, err
			}
			h.pf = append(h.pf, pf)
		}
	}
	llc, err := mk("LLC", cfg.LLCSize, cfg.LLCAssoc, cfg.LLCPolicy)
	if err != nil {
		return nil, err
	}
	h.llc = llc
	if cfg.VictimCacheEntries > 0 {
		h.vc = newVictimCache(cfg.VictimCacheEntries)
	}
	if cfg.LLCBanks > 0 {
		h.bankFree = make([]uint64, cfg.LLCBanks)
	}
	return h, nil
}

// configure adopts cfg and the values derived from it that the access
// paths read.
func (h *Hierarchy) configure(cfg Config) {
	h.cfg = cfg
	h.tlhOn = cfg.TLA == TLATLH
	h.memoOn = !h.tlhOn || cfg.TLHSources&IL1 == 0
	h.bankOccupancy = cfg.BankOccupancy
	if h.bankOccupancy == 0 {
		h.bankOccupancy = 2
	}
}

// Reset restores in place the state New(cfg) would build, keeping
// every allocation: it adopts cfg and restores the caches (contents
// and replacement state), prefetchers, the victim cache, the TLH
// sampling clock, the per-core ifetch memos, bank clocks, the
// decision-record scratch (its sequence number restarts at zero, like
// a fresh hierarchy's), and all statistics. cfg must be valid, and it
// may differ from the hierarchy's current configuration only in the
// fields Config.Shape zeroes, so one hierarchy can serve every
// inclusion mode and TLA policy of its geometry; a cfg of another shape
// is a caller bug and panics.
//
// The telemetry recorder is detached: it belongs to one run's
// measurement window, and a pooled hierarchy reused for a new run must
// not report events to the previous run's recorder. The simulator
// re-attaches its own recorder at the warmup boundary.
//
// A reset hierarchy must equal New(cfg) field for field, so that
// reset-then-rerun is indistinguishable from fresh-build-then-run:
// TestResetClearsEverything compares the two by reflection after runs
// of every configuration of one shape.
func (h *Hierarchy) Reset(cfg Config) {
	if cfg.Shape() != h.cfg.Shape() {
		panic("hierarchy: Reset to a config of a different shape")
	}
	h.configure(cfg)
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1i[c].Reset()
		h.l1d[c].Reset()
		h.l2[c].Reset()
		if h.pf != nil {
			h.pf[c].Reset()
		}
	}
	h.llc.Reset()
	if h.vc != nil {
		h.vc.reset()
	}
	h.buf = h.buf[:0]
	h.hintClock = 0
	h.clearIFetchMemos()
	for i := range h.bankFree {
		h.bankFree[i] = 0
	}
	h.tel = nil
	// Keep the candidate scratch buffer but restart the record — Seq
	// must count from zero again or a reused hierarchy's first trace
	// record would expose the previous run's decision count.
	clear(h.dec.Candidates)
	h.dec = telemetry.Decision{Candidates: h.dec.Candidates}
	for i := range h.Cores {
		h.Cores[i] = CoreStats{}
	}
	h.Traffic = Traffic{}
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("hierarchy: MustNew: %v", err))
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// SetTelemetry attaches (or, with nil, detaches) the run's telemetry
// recorder. The simulator attaches it after the warmup counter reset so
// it observes exactly the measurement window.
func (h *Hierarchy) SetTelemetry(r *telemetry.Recorder) { h.tel = r }

// EventCounts returns the hierarchy's counts of the telemetry events it
// counts itself — every kind but ECI rescues, which only a recorder
// observes — for telemetry.Recorder.Finish.
func (h *Hierarchy) EventCounts() telemetry.Counts {
	t := &h.Traffic
	c := telemetry.Counts{
		telemetry.EvBackInvalidate: t.BackInvalidates,
		telemetry.EvECIInvalidate:  t.ECISent,
		telemetry.EvQBSQuery:       t.QBSQueries,
		telemetry.EvQBSSave:        t.QBSSaves,
		telemetry.EvTLHHint:        t.TLHSent,
	}
	for i := range h.Cores {
		c[telemetry.EvInclusionVictim] += h.Cores[i].InclusionVictims
		c[telemetry.EvL2InclusionVictim] += h.Cores[i].L2InclusionVictims
	}
	return c
}

// TotalInclusionVictims sums inclusion victims across cores.
func (h *Hierarchy) TotalInclusionVictims() uint64 {
	var n uint64
	for i := range h.Cores {
		n += h.Cores[i].InclusionVictims
	}
	return n
}

// DecisionMeta describes the LLC geometry and policy for decision-trace
// headers (telemetry.DecisionMeta).
func (h *Hierarchy) DecisionMeta() telemetry.DecisionMeta {
	return DecisionMetaFor(h.cfg)
}

// DecisionMetaFor computes the decision-trace header a run of cfg would
// produce, without building the hierarchy — callers that open trace
// files before the simulator constructs its machine need it.
func DecisionMetaFor(cfg Config) telemetry.DecisionMeta {
	return telemetry.DecisionMeta{
		Sets:   int(cfg.LLCSize / (cfg.LineSize * int64(cfg.LLCAssoc))),
		Assoc:  cfg.LLCAssoc,
		Policy: cfg.LLCPolicy.String(),
		Cores:  cfg.Cores,
	}
}

// LLC exposes the shared last-level cache (read-only use intended:
// invariant checks, worked examples, tests).
func (h *Hierarchy) LLC() *cache.Cache { return h.llc }

// L1I, L1D, and L2 expose core c's private caches.
func (h *Hierarchy) L1I(c int) *cache.Cache { return h.l1i[c] }

// L1D returns core c's data cache.
func (h *Hierarchy) L1D(c int) *cache.Cache { return h.l1d[c] }

// L2 returns core c's unified second-level cache.
func (h *Hierarchy) L2(c int) *cache.Cache { return h.l2[c] }

// Prefetcher returns core c's stream prefetcher, or nil when disabled.
func (h *Hierarchy) Prefetcher(c int) *prefetch.Streamer {
	if h.pf == nil {
		return nil
	}
	return h.pf[c]
}

// latency maps a fill level to its access latency.
func (h *Hierarchy) latency(lv Level) uint64 {
	switch lv {
	case LevelL1:
		return h.cfg.Latency.L1
	case LevelL2:
		return h.cfg.Latency.L2
	case LevelLLC:
		return h.cfg.Latency.LLC
	case LevelVictimCache:
		// A victim-cache hit pays the LLC lookup plus a swap.
		return h.cfg.Latency.LLC + 2
	case LevelMemory:
		return h.cfg.Latency.Memory
	default:
		// Defensive: a zero (unset) Level pays the full memory penalty.
		return h.cfg.Latency.Memory
	}
}
