package sim

import (
	"fmt"
	"sort"
	"sync"

	"tlacache/internal/cache"
	"tlacache/internal/hierarchy"
	"tlacache/internal/metrics"
	"tlacache/internal/replacement"
	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

// Sharded-by-set parallel LLC simulation.
//
// The timed interleave is inherently serial: which core touches the
// shared LLC next depends on every core's clock. This file trades the
// timing model away to buy set-level parallelism, in two phases:
//
//  1. Capture. Each core runs alone — functionally, no clocks — on a
//     single-core hierarchy, recording every LLC-bound operation
//     (demand access, dirty-L2 writeback, prefetch fill) through
//     hierarchy.LLCOpSink. This is sound only in the mode this file
//     accepts (non-inclusive LLC, no TLA policy, no victim cache):
//     there the LLC never reaches into the private caches
//     (no back-invalidation, no ECI, no QBS probes) and every private
//     side effect of an LLC access — allocL2 + fillL1 — is identical
//     on the hit and miss paths, so a core's private caches, and hence
//     its LLC-bound operation stream, are a pure function of its own
//     instruction stream. Cores are therefore independent and phase 1
//     fans out one goroutine per core.
//
//  2. Replay. The captured streams are merged into one canonical order
//     — by (instruction index, core, emission order), the order a
//     round-robin interleave would produce — and partitioned by LLC
//     set index across shard workers. Cache sets are independent state
//     machines as long as the replacement policy keeps no cross-set
//     state, so each worker replays its sets' subsequence on a private
//     full-geometry LLC image and the merged counters are exact sums
//     over disjoint sets: results are byte-identical for every shard
//     count and every GOMAXPROCS (TestShardedDeterminism).
//
// The mode reports functional counters only: Cycles, IPC, and
// Throughput are zero, and — unlike the timed mode, where fast cores
// keep competing for the LLC until the slowest finishes — every core
// contributes exactly Warmup+Instructions instructions. Warmup
// operations are replayed to warm each shard, then the counters reset.

// shardableLLCPolicy reports whether kind keeps all replacement state
// per-set. DIP/DRRIP set-duel through a global PSEL counter, BIP/BRRIP
// throttle through a global fill counter, and Random draws from one
// shared generator — replaying interleaved sets in per-shard order
// would diverge from the serial order for any of them.
func shardableLLCPolicy(kind replacement.Kind) bool {
	switch kind {
	case replacement.LRU, replacement.NRU, replacement.SRRIP, replacement.LIP:
		return true
	case replacement.Random, replacement.BIP, replacement.DIP,
		replacement.BRRIP, replacement.DRRIP:
		return false
	}
	return false
}

// validateSharded reports the first reason cfg cannot run sharded.
// The gatecover prover obliges it to examine (or the field to exempt)
// every knob of the simulation and hierarchy configurations: a knob
// the gate has never heard of cannot silently redefine what a faithful
// sharded run means.
//
//tlavet:gatecover Config hierarchy.Config
func validateSharded(cfg Config, shards int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if shards < 1 {
		return fmt.Errorf("sim: sharded run needs at least 1 shard, got %d", shards)
	}
	h := &cfg.Hierarchy
	switch {
	case h.Inclusion != hierarchy.NonInclusive:
		return fmt.Errorf("sim: sharded mode requires the non-inclusive LLC (inclusion back-invalidates couple private caches to LLC state)")
	case h.TLA != hierarchy.TLANone:
		return fmt.Errorf("sim: sharded mode requires TLA=none (hints, early invalidates, and queries couple private caches to LLC state)")
	case h.VictimCacheEntries > 0:
		return fmt.Errorf("sim: sharded mode does not support the victim cache (fully associative: not partitionable by set)")
	case h.LLCBanks > 0:
		return fmt.Errorf("sim: sharded mode has no timing model for LLC banks")
	case !shardableLLCPolicy(h.LLCPolicy):
		return fmt.Errorf("sim: sharded mode requires a per-set LLC policy (LRU, NRU, SRRIP, LIP), not %s", h.LLCPolicy)
	}
	if cfg.Probe != nil || cfg.DecisionTracer != nil || cfg.Sampler != nil {
		return fmt.Errorf("sim: sharded mode does not support observers (probe, decision tracer, sampler)")
	}
	if cfg.InvariantEvery > 0 || cfg.AuditEvery > 0 {
		return fmt.Errorf("sim: sharded mode does not support invariant or audit checking")
	}
	return nil
}

// llcOp is one captured LLC-bound operation.
type llcOp struct {
	instr uint64 // 0-based instruction index within the emitting core
	la    uint64 // line address
	kind  hierarchy.LLCOpKind
	core  uint8
}

// opRecorder captures one core's LLC-bound operations. The run loop
// bumps instr; LLCOp stamps it onto every emission, so merge order
// within a core is (instruction, emission order) — exactly append
// order.
type opRecorder struct {
	core  uint8
	instr uint64
	ops   []llcOp
}

func (r *opRecorder) LLCOp(kind hierarchy.LLCOpKind, la uint64) {
	//tlavet:allow hotpath amortised batch capture; sharded capture opts out of the zero-alloc contract
	r.ops = append(r.ops, llcOp{instr: r.instr, la: la, kind: kind, core: r.core})
}

// capture is one core's phase-1 result.
type capture struct {
	rec     opRecorder
	name    string
	l1i     hierarchy.LevelStats
	l1d     hierarchy.LevelStats
	l2      hierarchy.LevelStats
	l2Inval uint64
	// Private-side traffic: the fields the LLC replay cannot produce.
	prefetchIssued    uint64
	l2BackInvalidates uint64
	l2QBSQueries      uint64
	l2QBSSaves        uint64
}

// captureCore runs stream alone on a single-core image of cfg's machine
// and records its LLC-bound operations; out's counters cover the
// measurement window only, while out.rec covers warmup too (replay
// needs the warmup operations to warm the LLC image).
//
// It is the llcwrite prover's capture root: everything reachable from
// here may only mutate LLC-owned state through the annotated accessor
// set, which is what makes the captured operation stream complete.
//
//tlavet:llccapture
func captureCore(cfg Config, core int, stream trace.Generator, out *capture) error {
	h1 := cfg.Hierarchy
	h1.Cores = 1
	m, err := acquireMachine(h1, cfg.CPU)
	if err != nil {
		return err
	}
	h := m.h
	out.rec.core = uint8(core)
	h.SetLLCOpSink(&out.rec)
	// The pooled single-core machine's own offset generator is fixed at
	// offset 0; wrap the stream so core's addresses land in the same
	// per-core address space the timed mix run would use.
	g := &offsetGen{inner: stream, offset: uint64(core) * coreSpacing}
	in := &m.in

	run := func(n uint64) {
		for k := uint64(0); k < n; k++ {
			g.Next(in)
			if !h.IFetchMemoHit(0, in.PC) {
				h.AccessAt(0, hierarchy.IFetch, in.PC, 0)
			}
			if in.Op != trace.OpNone {
				kind := hierarchy.Load
				if in.Op == trace.OpStore {
					kind = hierarchy.Store
				}
				h.AccessAt(0, kind, in.Addr, 0)
			}
			out.rec.instr++
		}
	}
	run(cfg.Warmup)
	h.Cores[0] = hierarchy.CoreStats{}
	h.Traffic = hierarchy.Traffic{}
	run(cfg.Instructions)

	cs := &h.Cores[0]
	out.name = stream.Name()
	out.l1i, out.l1d, out.l2 = cs.L1I, cs.L1D, cs.L2
	out.l2Inval = cs.L2InclusionVictims
	out.prefetchIssued = h.Traffic.PrefetchIssued
	out.l2BackInvalidates = h.Traffic.L2BackInvalidates
	out.l2QBSQueries = h.Traffic.L2QBSQueries
	out.l2QBSSaves = h.Traffic.L2QBSSaves
	h.SetLLCOpSink(nil)
	releaseMachine(m)
	return nil
}

// mergeOps interleaves the per-core captures into the canonical
// (instruction index, core, emission order) sequence and returns it
// with the index of the first measured-window operation.
func mergeOps(caps []capture, warmup uint64) (ops []llcOp, measured int) {
	total := 0
	for i := range caps {
		total += len(caps[i].rec.ops)
	}
	ops = make([]llcOp, 0, total)
	idx := make([]int, len(caps))
	for len(ops) < total {
		best := -1
		var bestInstr uint64
		for c := range caps {
			if idx[c] >= len(caps[c].rec.ops) {
				continue
			}
			if in := caps[c].rec.ops[idx[c]].instr; best < 0 || in < bestInstr {
				best, bestInstr = c, in
			}
		}
		// Take the whole run of best's operations for this instruction:
		// no other core can emit at (bestInstr, lower core) anymore.
		co := caps[best].rec.ops
		for idx[best] < len(co) && co[idx[best]].instr == bestInstr {
			ops = append(ops, co[idx[best]])
			idx[best]++
		}
	}
	measured = sort.Search(len(ops), func(i int) bool { return ops[i].instr >= warmup })
	return ops, measured
}

// shardCounters is one replay worker's tally. Sets are disjoint across
// workers, so merging is pure summation.
type shardCounters struct {
	perCore []hierarchy.LevelStats // demand LLC stats by emitting core
	traffic hierarchy.Traffic
}

// replayShard replays the canonical operation sequence restricted to
// the sets with index ≡ shard (mod shards) on a private full-geometry
// LLC image, mirroring the hierarchy's non-inclusive LLC transitions:
// demand hit → promote + presence; demand miss → snoop broadcast,
// memory read, fill with writeback of a dirty victim; writeback →
// dirty the LLC copy or write to memory; prefetch → like demand but
// into the prefetch counters. The first measured operations (warm)
// update the LLC image without tallying, exactly like the warmup
// counter reset of the timed mode.
func replayShard(llc *cache.Cache, cores, shard, shards int, ops []llcOp, measured int, out *shardCounters) {
	out.perCore = make([]hierarchy.LevelStats, cores)
	snoops := uint64(0)
	if cores > 1 {
		snoops = uint64(cores - 1)
	}
	fill := func(la uint64, core uint8, warm bool) {
		set := llc.SetIndex(la)
		way := llc.VictimWay(set)
		victim, evicted := llc.FillWay(set, way, la, 1<<uint(core))
		if evicted && victim.Dirty && !warm {
			out.traffic.WritebacksToMem++
		}
	}
	for i, op := range ops {
		if shards > 1 && llc.SetIndex(op.la)%shards != shard {
			continue
		}
		warm := i < measured
		switch op.kind {
		case hierarchy.LLCOpDemand:
			if !warm {
				out.perCore[op.core].Accesses++
			}
			if set, way, ok := llc.Lookup(op.la); ok {
				llc.PromoteWay(set, way)
				llc.AddPresenceAt(set, way, int(op.core))
			} else {
				if !warm {
					out.perCore[op.core].Misses++
					out.traffic.CoherenceSnoops += snoops
					out.traffic.MemoryReads++
				}
				fill(op.la, op.core, warm)
			}
		case hierarchy.LLCOpWriteback:
			if !llc.SetDirty(op.la) && !warm {
				out.traffic.WritebacksToMem++
			}
		case hierarchy.LLCOpPrefetch:
			if !warm {
				out.traffic.PrefetchFills++
			}
			if set, way, ok := llc.Lookup(op.la); ok {
				llc.PromoteWay(set, way)
				llc.AddPresenceAt(set, way, int(op.core))
			} else {
				if !warm {
					out.traffic.MemoryReads++
				}
				fill(op.la, op.core, warm)
			}
		}
	}
}

// RunMixSharded simulates mix functionally with the LLC partitioned by
// set index across shards parallel replay workers. It accepts only
// configurations whose cores are provably LLC-independent (see the
// file comment): non-inclusive LLC, no TLA policy, no victim cache, no
// banks, and a per-set LLC replacement policy. Results are
// byte-identical for every shard count; shards=1 is the serial
// reference. Cycles, IPC, and Throughput are zero — this mode measures
// cache behaviour, not timing.
func RunMixSharded(cfg Config, mix workload.Mix, shards int) (MixResult, error) {
	if err := validateSharded(cfg, shards); err != nil {
		return MixResult{}, err
	}
	bs, err := mix.Benchmarks()
	if err != nil {
		return MixResult{}, err
	}
	n := cfg.Hierarchy.Cores
	if len(bs) != n {
		return MixResult{}, fmt.Errorf("sim: mix %s has %d apps for %d cores",
			mix.Name, len(bs), n)
	}

	// Phase 1: capture every core's LLC-bound operation stream, one
	// goroutine per core.
	caps := make([]capture, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		g, err := acquireSynthetic(bs[i].Profile, cfg.Seed+uint64(i)*0x9e37)
		if err != nil {
			return MixResult{}, err
		}
		wg.Add(1)
		//tlavet:allow detflow validateSharded rejects every observer, so no decision writer is reachable from a capture goroutine
		go func(i int, g *trace.Synthetic) {
			defer wg.Done()
			errs[i] = captureCore(cfg, i, g, &caps[i])
			releaseSynthetic(g, n)
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return MixResult{}, err
		}
	}
	ops, measured := mergeOps(caps, cfg.Warmup)

	// Phase 2: replay disjoint set partitions in parallel.
	tallies := make([]shardCounters, shards)
	shardErrs := make([]error, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			llc, err := cache.New(cache.Config{
				Name:     "LLC",
				Size:     cfg.Hierarchy.LLCSize,
				Assoc:    cfg.Hierarchy.LLCAssoc,
				LineSize: cfg.Hierarchy.LineSize,
				Policy:   cfg.Hierarchy.LLCPolicy,
			})
			if err != nil {
				shardErrs[s] = err
				return
			}
			replayShard(llc, n, s, shards, ops, measured, &tallies[s])
		}(s)
	}
	wg.Wait()
	for _, err := range shardErrs {
		if err != nil {
			return MixResult{}, err
		}
	}

	// Merge: disjoint-set sums plus the private-side capture counters.
	res := MixResult{Mix: mix, Apps: make([]AppResult, n)}
	for i := 0; i < n; i++ {
		c := &caps[i]
		app := AppResult{
			Benchmark:          c.name,
			Instructions:       cfg.Instructions,
			L1I:                c.l1i,
			L1D:                c.l1d,
			L2:                 c.l2,
			L2InclusionVictims: c.l2Inval,
		}
		for s := range tallies {
			app.LLC.Accesses += tallies[s].perCore[i].Accesses
			app.LLC.Misses += tallies[s].perCore[i].Misses
		}
		app.L1MPKI = metrics.MPKI(c.l1i.Misses+c.l1d.Misses, cfg.Instructions)
		app.L2MPKI = metrics.MPKI(c.l2.Misses, cfg.Instructions)
		app.LLCMPKI = metrics.MPKI(app.LLC.Misses, cfg.Instructions)
		res.Apps[i] = app
		res.LLCMisses += app.LLC.Misses
		res.Traffic.PrefetchIssued += c.prefetchIssued
		res.Traffic.L2BackInvalidates += c.l2BackInvalidates
		res.Traffic.L2QBSQueries += c.l2QBSQueries
		res.Traffic.L2QBSSaves += c.l2QBSSaves
	}
	for s := range tallies {
		t := &tallies[s].traffic
		res.Traffic.CoherenceSnoops += t.CoherenceSnoops
		res.Traffic.MemoryReads += t.MemoryReads
		res.Traffic.WritebacksToMem += t.WritebacksToMem
		res.Traffic.PrefetchFills += t.PrefetchFills
	}
	return res, nil
}
