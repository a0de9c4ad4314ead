package hierarchy

// Tests for the paper's footnote studies: modified QBS (footnote 6)
// and the inclusive-L2 design point with TLA applied at the L2
// (footnote 3).

import (
	"testing"
	"testing/quick"
)

func TestConfigValidateFootnoteFeatures(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.QBSEvictSaved = true /* TLA is not QBS */ },
		func(c *Config) { c.L2QBS = true /* L2 not inclusive */ },
		func(c *Config) { c.L2Inclusive = true; c.Inclusion = Exclusive },
	}
	for i, mut := range muts {
		cfg := DefaultConfig(2)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	ok := DefaultConfig(2)
	ok.TLA = TLAQBS
	ok.QBSEvictSaved = true
	ok.L2Inclusive = true
	ok.L2QBS = true
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid footnote config rejected: %v", err)
	}
}

// TestModifiedQBS: on the Figure 3 pattern, modified QBS saves 'a' in
// the LLC but — unlike plain QBS — invalidates it from the core caches,
// so the re-reference is an LLC hit instead of an L1 hit. Memory
// traffic is avoided either way (the footnote's point).
func TestModifiedQBS(t *testing.T) {
	cfg := tinyConfig()
	cfg.TLA = TLAQBS
	cfg.QBSEvictSaved = true
	ls := newLockstep(t, cfg, false)
	h := ls.h
	for _, a := range []uint64{lineA, lineB, lineA, lineC, lineA, lineD, lineA} { // the Figure 3 prefix
		ls.step(t, 0, Load, a)
	}
	ls.step(t, 0, Load, lineE) // QBS saves 'a', then invalidates core copies
	if !h.LLC().Contains(lineA) {
		t.Fatal("modified QBS failed to keep 'a' in the LLC")
	}
	if h.L1D(0).Contains(lineA) || h.L2(0).Contains(lineA) {
		t.Fatal("modified QBS left 'a' in the core caches")
	}
	if res := ls.step(t, 0, Load, lineA); res.Level != LevelLLC {
		t.Fatalf("'a' satisfied at level %d, want LLC", res.Level)
	}
	ls.mustAgree(t)
}

// l2IncConfig: 2-entry L1s over a 4-entry inclusive L2 and a large LLC,
// so L2 evictions (not LLC evictions) drive the inclusion victims.
func l2IncConfig() Config {
	cfg := DefaultConfig(1)
	cfg.L1ISize, cfg.L1IAssoc = 128, 2
	cfg.L1DSize, cfg.L1DAssoc = 128, 2
	cfg.L2Size, cfg.L2Assoc = 256, 4
	cfg.LLCSize, cfg.LLCAssoc = 1024, 16
	cfg.L2Inclusive = true
	return cfg
}

func TestL2InclusiveBackInvalidates(t *testing.T) {
	ls := newLockstep(t, l2IncConfig(), false)
	h := ls.h
	// Keep 'a' hot in the L1 while filling the L2; its L2 replacement
	// state decays (L1 hits are invisible to the L2) and the fill of
	// 'e' evicts it — an L2-level inclusion victim.
	for _, l := range []uint64{lineA, lineB, lineA, lineC, lineA, lineD, lineA} {
		ls.step(t, 0, Load, l)
	}
	if !h.L1D(0).Contains(lineA) || !h.L2(0).Contains(lineA) {
		t.Fatal("precondition: 'a' hot in L1 and resident in L2")
	}
	ls.step(t, 0, Load, lineE)
	if h.L1D(0).Contains(lineA) {
		t.Fatal("inclusive L2 did not back-invalidate 'a' from the L1")
	}
	if h.Cores[0].L2InclusionVictims != 1 {
		t.Fatalf("L2InclusionVictims = %d, want 1", h.Cores[0].L2InclusionVictims)
	}
	if h.Traffic.L2BackInvalidates == 0 {
		t.Fatal("no L2 back-invalidate traffic recorded")
	}
	// The re-reference lands in the LLC (the line survived there).
	if res := ls.step(t, 0, Load, lineA); res.Level != LevelLLC {
		t.Fatalf("'a' satisfied at level %d, want LLC", res.Level)
	}
	ls.mustAgree(t)
}

func TestL2QBSSavesL1ResidentLines(t *testing.T) {
	cfg := l2IncConfig()
	cfg.L2QBS = true
	ls := newLockstep(t, cfg, false)
	h := ls.h
	for _, l := range []uint64{lineA, lineB, lineA, lineC, lineA, lineD, lineA} {
		ls.step(t, 0, Load, l)
	}
	ls.step(t, 0, Load, lineE)
	if !h.L1D(0).Contains(lineA) {
		t.Fatal("L2 QBS failed to protect the L1-resident line")
	}
	if h.Cores[0].L2InclusionVictims != 0 {
		t.Fatalf("L2InclusionVictims = %d, want 0 under L2 QBS", h.Cores[0].L2InclusionVictims)
	}
	if h.Traffic.L2QBSQueries == 0 || h.Traffic.L2QBSSaves == 0 {
		t.Fatalf("L2 QBS traffic not recorded: %+v", h.Traffic)
	}
	if res := ls.step(t, 0, Load, lineA); res.Level != LevelL1 {
		t.Fatalf("'a' satisfied at level %d, want L1", res.Level)
	}
	ls.mustAgree(t)
}

// TestL2InclusionInvariantHolds: under random streams, a machine with
// an inclusive L2 agrees with the reference hierarchy, which keeps
// every L1 line in its core's L2, with and without L2 QBS and the
// LLC-level TLA policies.
func TestL2InclusionInvariantHolds(t *testing.T) {
	for _, l2qbs := range []bool{false, true} {
		for _, tla := range []TLAPolicy{TLANone, TLAQBS} {
			l2qbs, tla := l2qbs, tla
			f := func(ops []uint32) bool {
				cfg := smallConfig(2)
				cfg.L2Inclusive = true
				cfg.L2QBS = l2qbs
				cfg.TLA = tla
				return lockstepReplay(t, cfg, ops) != nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Errorf("l2qbs=%v tla=%v: %v", l2qbs, tla, err)
			}
		}
	}
}

// TestModifiedQBSMatchesQBSOnMisses: the footnote's claim in miniature —
// both QBS variants avoid the memory re-fetch; they differ only in
// where the rescued access hits.
func TestModifiedQBSMatchesQBSOnMisses(t *testing.T) {
	run := func(evictSaved bool) (memAccesses int) {
		cfg := tinyConfig()
		cfg.TLA = TLAQBS
		cfg.QBSEvictSaved = evictSaved
		h := MustNew(cfg)
		pattern := []uint64{lineA, lineB, lineA, lineC, lineA, lineD, lineA,
			lineE, lineA, lineF, lineA}
		for _, l := range pattern {
			if res := h.Access(0, Load, l); res.Level == LevelMemory {
				memAccesses++
			}
		}
		return memAccesses
	}
	plain, modified := run(false), run(true)
	if plain != modified {
		t.Fatalf("memory accesses: plain QBS %d, modified QBS %d — footnote 6 expects parity",
			plain, modified)
	}
}
