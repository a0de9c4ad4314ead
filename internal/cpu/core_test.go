package cpu

import (
	"testing"
	"testing/quick"

	"tlacache/internal/statecheck"
)

const hitLat = 1

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{{0, 128, 32}, {4, 0, 32}, {4, 128, 0}}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted", cfg)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestIdealIPCEqualsWidth(t *testing.T) {
	c := MustNew(Default())
	for i := 0; i < 4000; i++ {
		c.Instr(hitLat, 0, hitLat)
	}
	c.Finish()
	if ipc := c.IPC(); ipc < 3.9 || ipc > 4.0 {
		t.Fatalf("all-hit IPC = %.3f, want ~4", ipc)
	}
}

func TestFetchMissStallsFully(t *testing.T) {
	c := MustNew(Default())
	c.Instr(151, 0, hitLat) // memory-latency instruction fetch
	if c.Cycle() < 150 {
		t.Fatalf("cycle after fetch miss = %d, want >= 150", c.Cycle())
	}
	if c.Stats.FetchStalls == 0 {
		t.Fatal("fetch stall not recorded")
	}
}

func TestLoadMissesOverlap(t *testing.T) {
	// Two independent memory-latency loads inside the ROB window must
	// overlap: total time far below 2x the latency.
	c := MustNew(Default())
	c.Instr(hitLat, 151, hitLat)
	c.Instr(hitLat, 151, hitLat)
	total := c.Finish()
	if total > 200 {
		t.Fatalf("two overlapping misses took %d cycles; MLP not modelled", total)
	}
	if total < 150 {
		t.Fatalf("misses completed in %d cycles, faster than memory latency", total)
	}
}

func TestROBWindowLimitsOverlap(t *testing.T) {
	// With a tiny ROB, back-to-back misses serialise.
	c := MustNew(Config{Width: 4, ROB: 2, MSHRs: 32})
	for i := 0; i < 10; i++ {
		c.Instr(hitLat, 101, hitLat)
	}
	total := c.Finish()
	// 10 misses, at most 2 in flight: at least 5 serialised latencies.
	if total < 450 {
		t.Fatalf("ROB=2 total = %d cycles, want >= 450 (serialisation)", total)
	}
	if c.Stats.WindowStalls == 0 {
		t.Fatal("window stalls not recorded")
	}
}

func TestMSHRLimitSerialises(t *testing.T) {
	few := MustNew(Config{Width: 4, ROB: 1024, MSHRs: 2})
	many := MustNew(Config{Width: 4, ROB: 1024, MSHRs: 64})
	for i := 0; i < 64; i++ {
		few.Instr(hitLat, 101, hitLat)
		many.Instr(hitLat, 101, hitLat)
	}
	if f, m := few.Finish(), many.Finish(); f <= m {
		t.Fatalf("MSHRs=2 (%d cycles) not slower than MSHRs=64 (%d cycles)", f, m)
	}
}

func TestL1HitsDoNotOccupyMSHRs(t *testing.T) {
	c := MustNew(Config{Width: 1, ROB: 8, MSHRs: 1})
	for i := 0; i < 1000; i++ {
		c.Instr(hitLat, hitLat, hitLat)
	}
	total := c.Finish()
	if total != 1000 {
		t.Fatalf("1000 single-issue L1 hits took %d cycles, want 1000", total)
	}
	if c.Stats.WindowStalls != 0 {
		t.Fatalf("L1 hits caused window stalls: %+v", c.Stats)
	}
}

func TestMoreMissesMeansMoreCycles(t *testing.T) {
	missy := MustNew(Default())
	clean := MustNew(Default())
	for i := 0; i < 10000; i++ {
		lat := uint64(hitLat)
		if i%10 == 0 {
			lat = 151
		}
		missy.Instr(hitLat, lat, hitLat)
		clean.Instr(hitLat, hitLat, hitLat)
	}
	if missy.Finish() <= clean.Finish() {
		t.Fatal("misses did not slow the core down")
	}
}

// TestCycleMonotonic: the clock never runs backwards, for arbitrary
// latency sequences, and Finish resolves everything.
func TestCycleMonotonic(t *testing.T) {
	f := func(lats []uint16) bool {
		c := MustNew(Config{Width: 4, ROB: 16, MSHRs: 4})
		prev := uint64(0)
		for _, l := range lats {
			fetch := uint64(l%7) + 1
			mem := uint64(l % 300)
			c.Instr(fetch, mem, hitLat)
			if c.Cycle() < prev {
				return false
			}
			prev = c.Cycle()
		}
		end := c.Finish()
		return end >= prev && c.count == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDeterminism: identical inputs give identical cycle counts.
func TestDeterminism(t *testing.T) {
	f := func(lats []uint16) bool {
		a := MustNew(Default())
		b := MustNew(Default())
		for _, l := range lats {
			a.Instr(hitLat, uint64(l%200), hitLat)
			b.Instr(hitLat, uint64(l%200), hitLat)
		}
		return a.Finish() == b.Finish()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIPCZeroCycles(t *testing.T) {
	c := MustNew(Default())
	if got := c.IPC(); got != 0 {
		t.Fatalf("IPC with no cycles = %v", got)
	}
}

// TestReset: a core reset after a run that wrapped its miss queue must
// equal a new core field for field, the queue's dead slots included.
func TestReset(t *testing.T) {
	c := MustNew(Default())
	for i := 0; i < 100; i++ {
		c.Instr(hitLat, 151, hitLat)
	}
	c.Reset()
	if d := statecheck.Diff(c, MustNew(Default())); d != "" {
		t.Fatalf("reset core differs from a new one: %s", d)
	}
}
