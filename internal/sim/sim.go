// Package sim drives multi-programmed workloads through a cache
// hierarchy and the core timing model, reproducing the paper's
// methodology: every core runs its benchmark's instruction stream;
// statistics for a core freeze once it commits its instruction budget;
// faster cores keep executing — and keep competing for the shared LLC —
// until every core has reached its budget.
package sim

import (
	"fmt"

	"tlacache/internal/cpu"
	"tlacache/internal/hierarchy"
	"tlacache/internal/metrics"
	"tlacache/internal/telemetry"
	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

// coreSpacing separates per-core address spaces: the benchmarks in a
// mix are independent processes (as in the paper), so neither code nor
// data is shared between cores.
const coreSpacing = uint64(1) << 46

// Config parameterises a simulation run.
type Config struct {
	Hierarchy hierarchy.Config
	CPU       cpu.Config
	// Instructions is the per-core measurement budget (the paper uses
	// 250M per PinPoint; experiments here default to a few million —
	// the working sets are identical, only the measurement window
	// shrinks).
	Instructions uint64
	// Warmup instructions run per core before statistics are cleared
	// and measurement begins. Cache and prefetcher state carries over;
	// only counters reset. A warmup of at least ~1M instructions lets
	// the 2MB LLC fill and reach replacement steady state, which the
	// paper's 250M-instruction runs get implicitly.
	Warmup uint64
	// Seed diversifies the synthetic streams; a mix is reproducible
	// given (Config, Mix).
	Seed uint64
	// Telemetry, when non-nil, observes the measurement window: it is
	// attached after the warmup counter reset, so — like Traffic — it
	// covers the post-budget execution of fast cores, and receives the
	// hierarchy's event counts when the run ends. When it samples
	// (Telemetry.Every() > 0), every Every() instructions a core commits
	// inside its window the core's interval IPC, LLC MPKI,
	// inclusion-victim delta and the LLC occupancy are snapshotted, and
	// a final partial interval is flushed when the core reaches its
	// budget, so the inclusion-victim column sums exactly to the run's
	// aggregate InclusionVictims. A recorder must not be shared between
	// concurrent runs.
	Telemetry *telemetry.Recorder
	// Epoch, when positive, overrides the interleave burst length: the
	// scheduled core executes up to Epoch instructions before the loop
	// returns to its per-burst bookkeeping (statistics boundaries,
	// min-cycle bookkeeping). Zero selects defaultEpoch. Every value
	// produces bit-identical results — bursts break the moment the
	// running core's clock passes the runner-up and are capped at every
	// statistics boundary (see the correctness argument at run's burst
	// sizing, and DESIGN.md §14); TestEpochInvariance pins Epoch=1
	// against the default byte-for-byte.
	Epoch uint64
}

// defaultEpoch is the interleave burst length when Config.Epoch is
// zero: long enough to amortise the per-burst boundary arithmetic to
// noise, short enough that burst sizing stays irrelevant next to the
// cycle-driven burst breaks that dominate multi-core interleaving.
const defaultEpoch = 64

// DefaultConfig is the paper's baseline machine for the given core
// count with a 2M-instruction budget.
func DefaultConfig(cores int) Config {
	return Config{
		Hierarchy:    hierarchy.DefaultConfig(cores),
		CPU:          cpu.Default(),
		Instructions: 2_000_000,
		Warmup:       1_000_000,
		Seed:         1,
	}
}

// Validate reports the first configuration problem.
func (c *Config) Validate() error {
	if err := c.Hierarchy.Validate(); err != nil {
		return err
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if c.Instructions == 0 {
		return fmt.Errorf("sim: zero instruction budget")
	}
	return nil
}

// AppResult is one application's measurement window.
type AppResult struct {
	Benchmark    string
	Instructions uint64
	Cycles       uint64
	IPC          float64

	L1I, L1D, L2, LLC hierarchy.LevelStats

	// MPKI values follow Table I's convention: L1 combines the
	// instruction and data caches.
	L1MPKI  float64
	L2MPKI  float64
	LLCMPKI float64

	InclusionVictims uint64
	// L2InclusionVictims counts L1 lines lost to an inclusive L2's
	// evictions (zero unless hierarchy.Config.L2Inclusive is set).
	L2InclusionVictims uint64
}

// MixResult is a full mix run.
type MixResult struct {
	Mix  workload.Mix
	Apps []AppResult
	// Traffic is the hierarchy-global message accounting over the whole
	// run (including post-budget execution of fast cores, exactly like
	// the messages a real machine would keep exchanging).
	Traffic hierarchy.Traffic
	// Throughput is the sum of per-app IPCs, the paper's headline
	// metric.
	Throughput float64
	// LLCMisses sums the apps' windowed demand LLC misses, the metric
	// of Figure 8.
	LLCMisses uint64
	// InclusionVictims sums the apps' windowed inclusion victims.
	InclusionVictims uint64
}

// shift moves an instruction into the address space at offset.
func shift(in *trace.Instr, offset uint64) {
	in.PC += offset
	if in.Op != trace.OpNone {
		in.Addr += offset
	}
}

// RunMix simulates mix on cfg's machine. The mix must supply exactly
// one benchmark per configured core.
func RunMix(cfg Config, mix workload.Mix) (MixResult, error) {
	bs, err := mix.Benchmarks()
	if err != nil {
		return MixResult{}, err
	}
	if len(bs) != cfg.Hierarchy.Cores {
		return MixResult{}, fmt.Errorf("sim: mix %s has %d apps for %d cores",
			mix.Name, len(bs), cfg.Hierarchy.Cores)
	}
	gens := make([]trace.Generator, len(bs))
	synths := make([]*trace.Synthetic, len(bs))
	for i := range bs {
		g, err := acquireSynthetic(bs[i].Profile, cfg.Seed+uint64(i)*0x9e37)
		if err != nil {
			for _, s := range synths[:i] {
				releaseSynthetic(s, len(bs))
			}
			return MixResult{}, err
		}
		synths[i], gens[i] = g, g
	}
	res, err := RunGenerators(cfg, gens)
	for _, s := range synths {
		releaseSynthetic(s, len(bs))
	}
	if err != nil {
		return MixResult{}, err
	}
	res.Mix = mix
	return res, nil
}

// RunGenerators simulates one instruction stream per core — any
// trace.Generator, e.g. recorded trace replays — on cfg's machine.
// Each stream is shifted into a private per-core address space first,
// matching the paper's multi-programmed (no sharing) methodology.
//
// The streams are produced ahead of the simulation: after each core's
// first few instructions, their Next methods are called from a goroutine
// other than the caller's, which owns the streams until RunGenerators
// returns. A run may advance a stream up to one ring (256 KB of
// instructions, split across the cores) past what it consumed, so pass
// fresh or Reset streams to every run. A panic in a stream's Next is
// re-raised on the calling goroutine.
func RunGenerators(cfg Config, streams []trace.Generator) (MixResult, error) {
	m, err := checkedMachine(cfg, streams)
	if err != nil {
		return MixResult{}, err
	}
	if err := runMachine(cfg, m, streams); err != nil {
		return MixResult{}, err
	}
	n := cfg.Hierarchy.Cores
	res := MixResult{
		Mix:     workload.Mix{Name: "custom", Apps: make([]string, n)},
		Apps:    make([]AppResult, n),
		Traffic: m.h.Traffic,
	}
	for i := range res.Apps {
		res.Apps[i] = m.apps[i]
		res.Mix.Apps[i] = m.apps[i].Benchmark
		res.LLCMisses += m.apps[i].LLC.Misses
		res.InclusionVictims += m.apps[i].InclusionVictims
		m.ipcs[i] = m.apps[i].IPC
	}
	res.Throughput = metrics.Throughput(m.ipcs)
	releaseMachine(m)
	return res, nil
}

// checkedMachine validates a run's inputs and acquires its machine.
func checkedMachine(cfg Config, streams []trace.Generator) (*machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(streams) != cfg.Hierarchy.Cores {
		return nil, fmt.Errorf("sim: %d streams for %d cores",
			len(streams), cfg.Hierarchy.Cores)
	}
	for i := range streams {
		if streams[i] == nil {
			return nil, fmt.Errorf("sim: stream %d is nil", i)
		}
	}
	return acquireMachine(cfg.Hierarchy, cfg.CPU)
}

// runMachine executes one full run — warmup, counter reset, measured
// window — on an acquired machine, leaving each core's frozen window in
// m.apps and the global message accounting in m.h.Traffic. The caller
// owns the machine: it releases it after copying the results out on
// success, and abandons it to the garbage collector on error.
func runMachine(cfg Config, m *machine, streams []trace.Generator) error {
	h := m.h
	n := cfg.Hierarchy.Cores
	cores := m.cores
	// The streams are produced ahead on the feeder's goroutine, which
	// owns them until the deferred release has stopped and joined it —
	// on every exit path, panics included.
	feed := acquireFeeder(n)
	defer releaseFeeder(feed)
	feed.start(streams)

	committed := m.committed
	finished := m.finished
	clocks := m.clocks
	for i := 0; i < n; i++ {
		committed[i], finished[i], clocks[i] = 0, false, 0
	}
	hitLat := cfg.Hierarchy.Latency.L1
	epoch := cfg.Epoch
	if epoch == 0 {
		epoch = defaultEpoch
	}

	// Telemetry attaches after the warmup reset (see below), so during
	// warmup it stays disabled and every (the sampling interval) zero.
	// llcLines scales occupancy samples.
	var every uint64
	llcLines := cfg.Hierarchy.LLCSize / cfg.Hierarchy.LineSize
	sample := func(c int) {
		cs := &h.Cores[c]
		occ := float64(h.LLC().CountValid()) / float64(llcLines)
		cfg.Telemetry.Observe(c, committed[c], cores[c].Cycle(), cs.LLC.Misses, cs.InclusionVictims, occ)
	}

	// run interleaves the cores — always advancing the one whose clock
	// is furthest behind — until each has committed `budget`
	// instructions since the last counter reset. Cores that reach the
	// budget keep executing (and keep competing for the LLC) until the
	// slowest one arrives; onBudget fires once per core at the
	// crossing.
	var total uint64
	run := func(budget uint64, onBudget func(core int)) error {
		remaining := n
		for remaining > 0 {
			// Only the running core's clock moves during a burst, so
			// the clocks mirror holds every other core's exact clock.
			c, runner := nextCore(clocks)
			// Epoch-batched execution: core c bursts up to `epoch`
			// instructions with only the cycle comparison inside the
			// tight loop; the sample/budget modulo checks move to the
			// burst boundary. Exactness argument: each boundary check
			// fires on an exact count of core c's instructions, so the
			// burst is capped at the distance to every upcoming
			// boundary — a boundary can then only land exactly on a
			// burst end, where the post-burst checks below observe it
			// under the same conditions, in the same order (sample →
			// budget), the per-instruction loop checked them. A burst
			// that breaks early on the cycle condition stops short of
			// every boundary, so the post-burst modulo checks correctly
			// stay silent; the instruction-level schedule itself is
			// unchanged because the break condition holds exactly when
			// a per-instruction pick would choose another core. Every
			// cap is a distance to a boundary strictly ahead, so b >= 1
			// and the loop always progresses.
			b := epoch
			if !finished[c] {
				if d := budget - committed[c]; d < b {
					b = d
				}
				if every > 0 {
					if d := every - committed[c]%every; d < b {
						b = d
					}
				}
			}
			core, cf := cores[c], &feed.cores[c]
			buf, pos := cf.cur.buf, cf.pos
			for j := uint64(0); j < b; j++ {
				if pos == len(buf) {
					buf, pos = feed.advance(c), 0
				}
				in := &buf[pos]
				pos++
				now := core.Cycle()
				fetchLat := hitLat
				if !h.IFetchMemoHit(c, in.PC) {
					fetchLat = h.AccessAt(c, hierarchy.IFetch, in.PC, now).Latency
				}
				var memLat uint64
				if in.Op != trace.OpNone {
					kind := hierarchy.Load
					if in.Op == trace.OpStore {
						kind = hierarchy.Store
					}
					memLat = h.AccessAt(c, kind, in.Addr, now).Latency
				}
				core.Instr(fetchLat, memLat, hitLat)
				committed[c]++
				total++
				if core.Cycle()<<6|uint64(c) > runner {
					break
				}
			}
			cf.pos = pos
			if every > 0 && !finished[c] && committed[c]%every == 0 {
				sample(c)
			}
			if !finished[c] && committed[c] == budget {
				finished[c] = true
				remaining--
				if onBudget != nil {
					onBudget(c)
				}
			}
			// After onBudget: the snapshot's Finish drains the core's
			// outstanding misses and so moves its clock too.
			if clocks[c] = core.Cycle(); clocks[c] >= maxClock {
				return fmt.Errorf("sim: core %d clock reached 2^58 cycles after %d instructions", c, total)
			}
		}
		return nil
	}

	if cfg.Warmup > 0 {
		if err := run(cfg.Warmup, nil); err != nil {
			return err
		}
		// Counters reset; cache, prefetcher, and victim-cache state
		// carries into the measurement window.
		for i := range h.Cores {
			h.Cores[i] = hierarchy.CoreStats{}
		}
		h.Traffic = hierarchy.Traffic{}
		for i := range cores {
			cores[i].Reset()
			committed[i], finished[i], clocks[i] = 0, false, 0
		}
	}
	h.SetTelemetry(cfg.Telemetry)
	every = cfg.Telemetry.Every()
	if err := run(cfg.Instructions, func(c int) {
		if every > 0 {
			// Flush the final (possibly partial) interval exactly at the
			// budget crossing; Observe ignores it when the budget landed
			// on an interval boundary.
			sample(c)
		}
		m.apps[c] = snapshot(feed.names[c], cores[c], &h.Cores[c], cfg.Instructions)
	}); err != nil {
		return err
	}
	cfg.Telemetry.Finish(h.EventCounts())
	return nil
}

// maxClock bounds the core clocks the interleave can order: a core's
// key is its clock shifted left 6 bits above its index (at most 63), so
// a clock of 2^58 or more would lose its top bits. Runs fail instead.
const maxClock = uint64(1) << 58

// nextCore returns the core whose clock is furthest behind (the lowest
// index on ties) and the runner-up's key clock<<6|core, all ones when
// there is no other core. Keys are distinct, so the picked core c keeps
// the lead exactly while its own key stays below the runner-up key. The
// builtin min and max compile to conditional moves, so the pass has no
// branch on the clocks. Inlined into the run loop, it spills its two
// keys and the compiler turns one min back into a branch; the call
// costs less than that branch mispredicts.
//
//go:noinline
func nextCore(clocks []uint64) (c int, runner uint64) {
	lo, runner := ^uint64(0), ^uint64(0)
	for i, clock := range clocks {
		k := clock<<6 | uint64(i)
		runner = min(runner, max(lo, k))
		lo = min(lo, k)
	}
	return int(lo & 63), runner
}

// snapshot freezes a core's windowed statistics the moment it commits
// its budget. Finish drains outstanding misses so the cycle count is
// honest about in-flight work; the core remains usable afterwards.
func snapshot(name string, core *cpu.Core, cs *hierarchy.CoreStats, instructions uint64) AppResult {
	cycles := core.Finish()
	a := AppResult{
		Benchmark:    name,
		Instructions: instructions,
		Cycles:       cycles,
		L1I:          cs.L1I,
		L1D:          cs.L1D,
		L2:           cs.L2,
		LLC:          cs.LLC,

		L1MPKI:  metrics.MPKI(cs.L1I.Misses+cs.L1D.Misses, instructions),
		L2MPKI:  metrics.MPKI(cs.L2.Misses, instructions),
		LLCMPKI: metrics.MPKI(cs.LLC.Misses, instructions),

		InclusionVictims:   cs.InclusionVictims,
		L2InclusionVictims: cs.L2InclusionVictims,
	}
	if cycles > 0 {
		a.IPC = float64(instructions) / float64(cycles)
	}
	return a
}

// RunIsolation runs one benchmark alone on a single-core machine that
// keeps the shared-cache geometry of cfg (the paper's Table I setup:
// isolation, full LLC, no prefetching unless configured). The passed
// Benchmark's profile is used as-is, so callers may run customised
// variants without registering them.
func RunIsolation(cfg Config, b workload.Benchmark) (AppResult, error) {
	iso := cfg
	iso.Hierarchy.Cores = 1
	g, err := acquireSynthetic(b.Profile, cfg.Seed)
	if err != nil {
		return AppResult{}, err
	}
	// Bypass RunGenerators' public-result assembly: the isolation sweeps
	// behind Table 1 run thousands of these, and the single AppResult is
	// copied out of the machine's scratch before release, so once the
	// pools are warm a run allocates only its producer goroutine.
	streams := [1]trace.Generator{g}
	m, err := checkedMachine(iso, streams[:])
	if err != nil {
		releaseSynthetic(g, 1)
		return AppResult{}, err
	}
	if err := runMachine(iso, m, streams[:]); err != nil {
		releaseSynthetic(g, 1)
		return AppResult{}, err
	}
	app := m.apps[0]
	releaseMachine(m)
	releaseSynthetic(g, 1)
	return app, nil
}
