package hierarchy

// Targeted tests for the less-travelled paths: prefetching in exclusive
// and non-inclusive modes, the victim cache under exclusion, accessor
// methods, and the lockstep's detection of planted corruption. The
// scenarios run in lockstep with the reference hierarchy.

import (
	"testing"

	"tlacache/internal/prefetch"
)

func TestAccessors(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.EnablePrefetch = true
	h := MustNew(cfg)
	if got := h.Config().Cores; got != 2 {
		t.Fatalf("Config().Cores = %d", got)
	}
	if h.Prefetcher(0) == nil || h.Prefetcher(1) == nil {
		t.Fatal("Prefetcher() nil with prefetch enabled")
	}
	noPf := MustNew(DefaultConfig(1))
	if noPf.Prefetcher(0) != nil {
		t.Fatal("Prefetcher() non-nil with prefetch disabled")
	}
}

func TestLatencyMapping(t *testing.T) {
	h := MustNew(DefaultConfig(1))
	lat := h.cfg.Latency
	cases := map[Level]uint64{
		LevelL1:          lat.L1,
		LevelL2:          lat.L2,
		LevelLLC:         lat.LLC,
		LevelVictimCache: lat.LLC + 2,
		LevelMemory:      lat.Memory,
	}
	for lv, want := range cases {
		if got := h.latency(lv); got != want {
			t.Errorf("latency(%d) = %d, want %d", lv, got, want)
		}
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestNewRejectsBadSubConfigs(t *testing.T) {
	bad := DefaultConfig(1)
	bad.L2Size = 100 // invalid geometry
	if _, err := New(bad); err == nil {
		t.Error("bad L2 geometry accepted")
	}
	bad = DefaultConfig(1)
	bad.LLCSize = 100
	if _, err := New(bad); err == nil {
		t.Error("bad LLC geometry accepted")
	}
	bad = DefaultConfig(1)
	bad.EnablePrefetch = true
	bad.PrefetchConfig = prefetch.Config{Degree: -1}
	if _, err := New(bad); err == nil {
		t.Error("bad prefetch config accepted")
	}
}

func TestPrefetchInExclusiveMode(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Inclusion = Exclusive
	cfg.EnablePrefetch = true
	ls := newLockstep(t, cfg, false)
	for i := 0; i < 64; i++ {
		ls.step(t, 0, Load, uint64(i)*64)
	}
	if ls.h.Traffic.PrefetchFills == 0 {
		t.Fatal("no prefetch fills in exclusive mode")
	}
	ls.mustAgree(t)
	// Prefetch of a line resident in the exclusive LLC must move it up
	// (LLC invalidation path). Construct: evict a stream line from L2
	// into the LLC, then re-stream near it so the prefetcher wants it.
	cfg2 := tinyConfig()
	cfg2.Inclusion = Exclusive
	cfg2.EnablePrefetch = true
	ls2 := newLockstep(t, cfg2, false)
	for i := 0; i < 32; i++ {
		ls2.step(t, 0, Load, uint64(i)*64)
	}
	ls2.mustAgree(t)
}

func TestPrefetchHitsLLCPromotes(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.EnablePrefetch = true
	ls := newLockstep(t, cfg, false)
	// Prime lines into the LLC only: stream far enough that early lines
	// leave the L2 but stay in the LLC, then restart the stream so
	// prefetches target LLC-resident lines.
	const lines = 8192 // 512KB: beyond the 256KB L2, within the 1MB LLC
	for i := 0; i < lines; i++ {
		ls.step(t, 0, Load, uint64(i)*64)
	}
	for i := 0; i < 64; i++ {
		ls.step(t, 0, Load, uint64(i)*64)
	}
	ls.mustAgree(t)
	if ls.h.Traffic.PrefetchFills == 0 {
		t.Fatal("prefetcher idle")
	}
}

func TestVictimCacheWithExclusiveLLC(t *testing.T) {
	cfg := tinyConfig()
	cfg.Inclusion = Exclusive
	cfg.VictimCacheEntries = 8
	ls := newLockstep(t, cfg, false)
	h := ls.h
	// Stream enough distinct lines that the exclusive LLC evicts into
	// the victim cache, then revisit an old line.
	for i := 0; i < 12; i++ {
		ls.step(t, 0, Load, uint64(i)*64)
	}
	if h.Traffic.VictimCacheFills == 0 {
		t.Fatal("exclusive LLC evictions bypassed the victim cache")
	}
	// Find a line currently in the victim cache and access it.
	if h.vc.len() == 0 {
		t.Fatal("victim cache empty")
	}
	target := h.vc.addrs[0]
	res := ls.step(t, 0, Load, target)
	if res.Level != LevelVictimCache {
		t.Fatalf("victim-cache line served from level %d", res.Level)
	}
	ls.mustAgree(t)
}

func TestDirtyVictimCacheHitPreservesDirtyData(t *testing.T) {
	cfg := tinyConfig()
	cfg.VictimCacheEntries = 8
	h := MustNew(cfg)
	h.Access(0, Store, lineA)
	// Push the dirty line out of L1, L2, and LLC into the victim cache.
	for _, l := range []uint64{lineB, lineC, lineD, lineE} {
		h.Access(0, Load, l)
	}
	if h.LLC().Contains(lineA) {
		t.Fatal("setup: lineA still in LLC")
	}
	res := h.Access(0, Load, lineA)
	if res.Level != LevelVictimCache {
		t.Fatalf("lineA from level %d, want victim cache", res.Level)
	}
	// The refilled LLC line must carry the dirty bit so the data is not
	// lost on its next eviction.
	set, way, ok := h.LLC().Lookup(lineA)
	if !ok {
		t.Fatal("lineA not refilled into LLC")
	}
	if !h.LLC().Line(set, way).Dirty {
		t.Fatal("dirty bit lost through the victim cache")
	}
}

// TestLockstepDetectsPlantedViolations plants, after one access, each
// corruption a broken inclusion, exclusion or directory path would
// leave, and requires the lockstep to name the cache that holds it.
func TestLockstepDetectsPlantedViolations(t *testing.T) {
	exclusive := tinyConfig()
	exclusive.Inclusion = Exclusive
	for _, tc := range []struct {
		name  string
		cfg   Config
		plant func(h *Hierarchy)
		want  string
	}{
		// The LLC drops a line its cores hold: back-invalidation bypassed.
		{"inclusion", tinyConfig(), func(h *Hierarchy) { h.LLC().Invalidate(lineA) }, "LLC set"},
		// A core holds a line its presence bit no longer names.
		{"directory-hole", tinyConfig(), func(h *Hierarchy) { h.LLC().ClearPresence(lineA) }, "LLC set"},
		// The same line in an L2 and in an exclusive LLC.
		{"exclusion", exclusive, func(h *Hierarchy) { h.LLC().Fill(lineA, 0) }, "LLC set"},
		// An inclusive L2 drops a line its L1 keeps.
		{"l2-inclusion", l2IncConfig(), func(h *Hierarchy) { h.L2(0).Invalidate(lineA) }, "L2[0] set"},
		// A presence mask naming a core that does not exist.
		{"bogus-presence", tinyConfig(), func(h *Hierarchy) {
			set, way, _ := h.LLC().Lookup(lineA)
			h.LLC().AddPresenceAt(set, way, 7)
		}, "LLC set"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ls := newLockstep(t, tc.cfg, false)
			ls.step(t, 0, Load, lineA)
			ls.mustAgree(t)
			tc.plant(ls.h)
			lockstepError(t, ls.check(), tc.want)
		})
	}
}

func TestExclusiveLLCInsertSkipsSharedL2Lines(t *testing.T) {
	// Two cores read the same line (shared code); when one core's L2
	// evicts it, the exclusive LLC must not take a copy while the other
	// core's L2 still holds it.
	cfg := smallConfig(2)
	cfg.Inclusion = Exclusive
	ls := newLockstep(t, cfg, false)
	h := ls.h
	shared := uint64(0x40)
	ls.step(t, 0, Load, shared)
	ls.step(t, 1, Load, shared)
	// Push it out of core 0's tiny L2.
	for i := 1; i <= 8; i++ {
		ls.step(t, 0, Load, shared+uint64(i)*1024)
	}
	if !h.L2(1).Contains(shared) {
		t.Skip("line left core 1's L2 too; scenario not constructed")
	}
	if h.LLC().Contains(shared) {
		t.Fatal("exclusive LLC duplicated a line still held by another L2")
	}
	ls.mustAgree(t)
}

func TestBankedLLCQueueing(t *testing.T) {
	cfg := tinyConfig()
	cfg.LLCBanks = 1 // every access hits the same bank
	cfg.BankOccupancy = 4
	h := MustNew(cfg)
	// Two LLC-reaching accesses at the same instant: the second must be
	// charged the first's occupancy.
	r1 := h.AccessAt(0, Load, lineA, 100)
	r2 := h.AccessAt(0, Load, lineB, 100)
	if r2.Latency != r1.Latency+4 {
		t.Fatalf("second access latency %d, want %d (+occupancy)", r2.Latency, r1.Latency+4)
	}
	if h.Traffic.BankConflictCycles != 4 {
		t.Fatalf("BankConflictCycles = %d, want 4", h.Traffic.BankConflictCycles)
	}
	// A later access finds the bank free again.
	r3 := h.AccessAt(0, Load, lineC, 1000)
	if r3.Latency != r1.Latency {
		t.Fatalf("idle-bank access latency %d, want %d", r3.Latency, r1.Latency)
	}
	// L1 hits never touch a bank.
	before := h.Traffic.BankConflictCycles
	h.AccessAt(0, Load, lineC, 1000)
	h.AccessAt(0, Load, lineC, 1000)
	if h.Traffic.BankConflictCycles != before {
		t.Fatal("L1 hits charged bank conflicts")
	}
	// Reset clears bank state and adopts the next run's occupancy.
	cfg.BankOccupancy = 7
	h.Reset(cfg)
	r4 := h.AccessAt(0, Load, lineA, 0)
	if r4.Latency != r1.Latency {
		t.Fatalf("post-Reset latency %d, want %d", r4.Latency, r1.Latency)
	}
	r5 := h.AccessAt(0, Load, lineB, 0)
	if r5.Latency != r1.Latency+7 {
		t.Fatalf("post-Reset conflict latency %d, want %d (+new occupancy)", r5.Latency, r1.Latency+7)
	}
	if h.Traffic.BankConflictCycles != 7 {
		t.Fatalf("post-Reset BankConflictCycles = %d, want 7", h.Traffic.BankConflictCycles)
	}

	bad := tinyConfig()
	bad.LLCBanks = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative LLCBanks accepted")
	}
}

func TestBankedLLCDistinctBanksNoConflict(t *testing.T) {
	cfg := tinyConfig()
	cfg.LLCSize, cfg.LLCAssoc = 512, 4 // 2 sets -> 2 banks
	cfg.LLCBanks = 2
	h := MustNew(cfg)
	// lineA maps to set 0, lineB to set 1: different banks, no queueing.
	h.AccessAt(0, Load, lineA, 50)
	h.AccessAt(0, Load, lineB, 50)
	if h.Traffic.BankConflictCycles != 0 {
		t.Fatalf("distinct banks conflicted: %d cycles", h.Traffic.BankConflictCycles)
	}
}

func TestCoherenceSnoopAccounting(t *testing.T) {
	// Inclusive: LLC misses need no snoops (the snoop-filter benefit).
	inc := MustNew(smallConfig(2))
	replayOps(inc, []uint32{1, 5, 9, 77, 1234, 999}, 2)
	if inc.Traffic.CoherenceSnoops != 0 {
		t.Fatalf("inclusive hierarchy sent %d snoops", inc.Traffic.CoherenceSnoops)
	}
	// Non-inclusive 2-core: one snoop (cores-1) per demand+prefetch LLC
	// miss.
	cfg := smallConfig(3)
	cfg.Inclusion = NonInclusive
	non := MustNew(cfg)
	non.Access(0, Load, 0x40) // cold LLC miss
	if non.Traffic.CoherenceSnoops != 2 {
		t.Fatalf("snoops = %d, want 2 (3 cores - 1)", non.Traffic.CoherenceSnoops)
	}
	// Single core: nobody to snoop even without inclusion.
	cfg1 := smallConfig(1)
	cfg1.Inclusion = Exclusive
	solo := MustNew(cfg1)
	solo.Access(0, Load, 0x40)
	if solo.Traffic.CoherenceSnoops != 0 {
		t.Fatalf("single-core snoops = %d", solo.Traffic.CoherenceSnoops)
	}
}

func TestBroadcastInvalidateMultipliesMessages(t *testing.T) {
	run := func(broadcast bool) *Hierarchy {
		cfg := smallConfig(4)
		cfg.BroadcastInvalidate = broadcast
		ls := newLockstep(t, cfg, false)
		for _, op := range []uint32{3, 77, 1234, 98765, 4444, 313131, 8191, 99999,
			123, 456, 789, 1011, 555555, 777777} {
			ls.step(t, int(op)%4, AccessKind(op>>2)%3, uint64(op>>4)%(64<<10))
		}
		for i := 0; i < 4000; i++ {
			ls.step(t, i%4, Load, uint64(i*977)%(64<<10))
		}
		ls.mustAgree(t)
		return ls.h
	}
	filtered, broadcast := run(false), run(true)
	if broadcast.Traffic.BackInvalidates <= filtered.Traffic.BackInvalidates {
		t.Fatalf("broadcast back-invalidates %d not above filtered %d",
			broadcast.Traffic.BackInvalidates, filtered.Traffic.BackInvalidates)
	}
	// Same demand behaviour: the directory only filters messages.
	for c := range filtered.Cores {
		if filtered.Cores[c].LLC != broadcast.Cores[c].LLC {
			t.Fatalf("core %d demand stats diverged: %+v vs %+v",
				c, filtered.Cores[c].LLC, broadcast.Cores[c].LLC)
		}
	}
}

func TestNonInclusivePrefetchKeepsStats(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Inclusion = NonInclusive
	cfg.EnablePrefetch = true
	ls := newLockstep(t, cfg, false)
	for i := 0; i < 64; i++ {
		ls.step(t, 0, Load, uint64(i)*64)
	}
	if ls.h.Traffic.PrefetchFills == 0 {
		t.Fatal("no prefetch fills in non-inclusive mode")
	}
	ls.mustAgree(t)
}
