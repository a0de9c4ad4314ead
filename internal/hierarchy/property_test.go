package hierarchy

import (
	"testing"
	"testing/quick"

	"tlacache/internal/cache"
	"tlacache/internal/replacement"
)

// smallConfig is a multi-core configuration small enough that random
// access streams exercise every eviction path quickly.
func smallConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.L1ISize, cfg.L1IAssoc = 512, 2
	cfg.L1DSize, cfg.L1DAssoc = 512, 2
	cfg.L2Size, cfg.L2Assoc = 1024, 4
	cfg.LLCSize, cfg.LLCAssoc = 4096, 4
	return cfg
}

// replayOps drives h with a pseudo-random but fully determined stream
// derived from ops.
func replayOps(h *Hierarchy, ops []uint32, cores int) {
	for _, op := range ops {
		core := int(op) % cores
		kind := AccessKind(op>>2) % 3
		addr := uint64(op>>4) % (64 << 10) // 64KB footprint, > LLC
		h.Access(core, kind, addr)
	}
}

// lockstepReplay runs the accesses replayOps derives from ops on a
// machine of cfg in lockstep with the reference and returns the
// machine, or nil after logging the first difference.
func lockstepReplay(t testing.TB, cfg Config, ops []uint32) *Hierarchy {
	t.Helper()
	ls := newLockstep(t, cfg, false)
	for _, op := range ops {
		if err := ls.access(int(op)%cfg.Cores, AccessKind(op>>2)%3, uint64(op>>4)%(64<<10)); err != nil {
			t.Log(err)
			return nil
		}
	}
	if err := ls.check(); err != nil {
		t.Log(err)
		return nil
	}
	return ls.h
}

// TestInclusionInvariantHolds: in inclusive mode, after any access
// stream, the hierarchy agrees with the reference, which keeps every
// valid core-cache line in the LLC with a correct presence bit — for
// all TLA policies, with and without prefetching.
func TestInclusionInvariantHolds(t *testing.T) {
	for _, tla := range []TLAPolicy{TLANone, TLATLH, TLAECI, TLAQBS} {
		for _, pf := range []bool{false, true} {
			tla, pf := tla, pf
			f := func(ops []uint32) bool {
				cfg := smallConfig(2)
				cfg.TLA = tla
				cfg.EnablePrefetch = pf
				return lockstepReplay(t, cfg, ops) != nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Errorf("TLA=%v prefetch=%v: %v", tla, pf, err)
			}
		}
	}
}

// TestInclusionInvariantAllLLCPolicies repeats the inclusion check for
// each LLC replacement policy (the paper's footnote 4: the inclusion
// machinery is independent of the replacement policy).
func TestInclusionInvariantAllLLCPolicies(t *testing.T) {
	for _, pol := range []replacement.Kind{replacement.LRU, replacement.NRU, replacement.SRRIP, replacement.DIP, replacement.DRRIP} {
		pol := pol
		f := func(ops []uint32) bool {
			cfg := smallConfig(2)
			cfg.LLCPolicy = pol
			cfg.TLA = TLAQBS
			return lockstepReplay(t, cfg, ops) != nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("LLC policy %v: %v", pol, err)
		}
	}
}

// TestExclusiveInvariantHolds: in exclusive mode the hierarchy agrees
// with the reference, in which no line sits in both an L2 and the LLC.
func TestExclusiveInvariantHolds(t *testing.T) {
	f := func(ops []uint32) bool {
		cfg := smallConfig(2)
		cfg.Inclusion = Exclusive
		return lockstepReplay(t, cfg, ops) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNonInclusiveNeverBackInvalidates: non-inclusion must produce zero
// back-invalidates and zero inclusion victims under any stream.
func TestNonInclusiveNeverBackInvalidates(t *testing.T) {
	f := func(ops []uint32) bool {
		cfg := smallConfig(2)
		cfg.Inclusion = NonInclusive
		h := lockstepReplay(t, cfg, ops)
		return h != nil && h.Traffic.BackInvalidates == 0 && h.TotalInclusionVictims() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQBSNeverEvictsResidentWithinBudget: with an unlimited query
// budget and full probe, QBS must never produce an inclusion victim
// unless every way of a set is core-resident (which the accounting
// below excludes by requiring saves >= victims in every run).
func TestQBSNeverEvictsResidentUnlessSaturated(t *testing.T) {
	f := func(ops []uint32) bool {
		cfg := smallConfig(2)
		cfg.TLA = TLAQBS
		cfg.QBSProbe = AllCaches
		cfg.QBSMaxQueries = 0 // = LLC associativity
		ls := newLockstep(t, cfg, false)
		h := ls.h
		// Track victims: inclusion victims can only occur when QBS hit
		// its query limit, i.e. at least LLCAssoc saves happened in
		// that selection. Globally: victims <= saves/assoc is too
		// strict per-event, so check the strong local invariant
		// instead: re-run and verify victims only grow when the whole
		// candidate set was resident. Cheap proxy checked here: if no
		// query ever hit the limit, victims must be zero. Detect limit
		// hits by replaying with an invariant probe each access.
		for _, op := range ops {
			core := int(op) % 2
			kind := AccessKind(op>>2) % 3
			addr := uint64(op>>4) % (64 << 10)
			before := h.TotalInclusionVictims()
			if err := ls.access(core, kind, addr); err != nil {
				t.Log(err)
				return false
			}
			if h.TotalInclusionVictims() > before {
				// An inclusion victim under unlimited QBS means the
				// query loop saturated: every candidate it saw was
				// resident. That takes at least LLCAssoc saves.
				if h.Traffic.QBSSaves < uint64(cfg.LLCAssoc) {
					return false
				}
			}
		}
		return ls.check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTLAPoliciesPreserveContents: TLH must never change which lines
// the core caches hold versus the baseline for a single-threaded,
// miss-free-at-L1 pattern (hints only reorder the LLC). This is a
// regression guard against hints accidentally allocating or evicting.
func TestTLHOnlyReordersLLC(t *testing.T) {
	cfg := smallConfig(1)
	base := MustNew(cfg)
	cfgTLH := cfg
	cfgTLH.TLA = TLATLH
	cfgTLH.TLHSources = AllCaches
	tlh := MustNew(cfgTLH)
	// A stream that stays within the L1: after the first touch,
	// everything hits, so TLH sends hints but nothing changes
	// structurally anywhere.
	addrs := []uint64{0, 64, 128, 192}
	for _, a := range addrs {
		base.Access(0, Load, a)
		tlh.Access(0, Load, a)
	}
	for i := 0; i < 100; i++ {
		a := addrs[i%len(addrs)]
		base.Access(0, Load, a)
		tlh.Access(0, Load, a)
	}
	if tlh.Traffic.TLHSent == 0 {
		t.Fatal("no hints sent")
	}
	for _, a := range addrs {
		if !tlh.L1D(0).Contains(a) || !tlh.LLC().Contains(a) {
			t.Fatalf("TLH changed cache contents for %#x", a)
		}
	}
	if base.Cores[0].L1D != tlh.Cores[0].L1D {
		t.Fatalf("TLH changed demand stats: %+v vs %+v", base.Cores[0].L1D, tlh.Cores[0].L1D)
	}
}

// TestStatsConservation: at every level, misses <= accesses, and the
// L2 access count equals the L1 miss count (demand flow conservation).
func TestStatsConservation(t *testing.T) {
	f := func(ops []uint32) bool {
		cfg := smallConfig(2)
		cfg.TLA = TLAECI
		h := MustNew(cfg)
		replayOps(h, ops, 2)
		for c := range h.Cores {
			cs := &h.Cores[c]
			for _, ls := range []LevelStats{cs.L1I, cs.L1D, cs.L2, cs.LLC} {
				if ls.Misses > ls.Accesses {
					return false
				}
			}
			if cs.L2.Accesses != cs.L1I.Misses+cs.L1D.Misses {
				return false
			}
			if cs.LLC.Accesses != cs.L2.Misses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDeterministicReplay: identical configurations and access streams
// produce identical statistics, for every policy combination.
func TestDeterministicReplay(t *testing.T) {
	combos := []Config{}
	for _, tla := range []TLAPolicy{TLANone, TLATLH, TLAECI, TLAQBS} {
		cfg := smallConfig(2)
		cfg.TLA = tla
		cfg.EnablePrefetch = true
		combos = append(combos, cfg)
	}
	f := func(ops []uint32) bool {
		for _, cfg := range combos {
			a, b := MustNew(cfg), MustNew(cfg)
			replayOps(a, ops, 2)
			replayOps(b, ops, 2)
			if a.Traffic != b.Traffic {
				return false
			}
			for c := range a.Cores {
				if a.Cores[c] != b.Cores[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestDirectoryIsConservative: every core-cache line's presence bit is
// set in the LLC (inclusive mode) — i.e. the directory never
// under-approximates, which back-invalidation correctness depends on.
func TestDirectoryIsConservative(t *testing.T) {
	f := func(ops []uint32) bool {
		cfg := smallConfig(3)
		cfg.TLA = TLAQBS
		h := MustNew(cfg)
		replayOps(h, ops, 3)
		ok := true
		for c := 0; c < 3; c++ {
			for _, cc := range []*cache.Cache{h.L1I(c), h.L1D(c), h.L2(c)} {
				bit := uint64(1) << uint(c)
				cc.ForEachValid(func(l cache.Line) {
					if set, way, hit := h.LLC().Lookup(l.Addr); !hit || h.LLC().PresenceAt(set, way)&bit == 0 {
						ok = false
					}
				})
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestInclusiveCapacityBounded: the number of distinct lines resident
// anywhere in an inclusive hierarchy never exceeds the LLC capacity
// (plus nothing) — the paper's "capacity = LLC size" statement.
func TestInclusiveCapacityBounded(t *testing.T) {
	f := func(ops []uint32) bool {
		cfg := smallConfig(2)
		h := MustNew(cfg)
		replayOps(h, ops, 2)
		distinct := map[uint64]bool{}
		collect := func(l cache.Line) { distinct[l.Addr] = true }
		for c := 0; c < 2; c++ {
			h.L1I(c).ForEachValid(collect)
			h.L1D(c).ForEachValid(collect)
			h.L2(c).ForEachValid(collect)
		}
		h.LLC().ForEachValid(collect)
		return len(distinct) <= int(cfg.LLCSize/cfg.LineSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
