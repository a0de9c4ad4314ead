package hierarchy

import (
	"encoding/binary"
	"testing"
)

// FuzzHierarchyAccess drives a hierarchy and the reference hierarchy in
// lockstep with an arbitrary access stream on a fuzzer-chosen machine
// from lockstepConfigs (the mode byte's low six bits; bit 6 turns the
// prefetcher on, bit 7 decision tracing): no input sequence may make
// them disagree. Instruction fetches go through the ifetch memo first,
// as the simulator makes them, and every access advances the clock a
// banked LLC queues on by a cycle. The seed corpus names every machine
// once, so a plain go test drives each of them through the target.
func FuzzHierarchyAccess(f *testing.F) {
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	configs := lockstepConfigs()
	for mode := range configs {
		f.Add(seed, byte(mode))
	}
	// Seeds whose every access mirrors to the top of the address space
	// (bit 1 of each op word), with the prefetcher enabled: the overflow
	// clamps in prefetch emission and address rounding start covered.
	topSeed := make([]byte, 64)
	for i := range topSeed {
		topSeed[i] = byte(i*37) | 2
	}
	for _, mode := range []byte{0x40, 0x44, 0x45} {
		f.Add(topSeed, mode)
	}

	f.Fuzz(func(t *testing.T, data []byte, mode byte) {
		cfg := configs[int(mode&0x3f)%len(configs)].cfg
		cfg.EnablePrefetch = cfg.EnablePrefetch || mode&0x40 != 0
		ls := newLockstep(t, cfg, mode&0x80 != 0)

		for i := 0; i+4 <= len(data); i += 4 {
			op := binary.LittleEndian.Uint32(data[i:])
			addr := uint64(op>>4) % (64 << 10)
			if op&2 != 0 {
				// Mirror the access into the top of the 64-bit address
				// space so prefetch emission, line rounding, and set
				// indexing get exercised at the overflow boundary.
				addr = ^uint64(0) - addr
			}
			core, kind := int(op>>24)%cfg.Cores, AccessKind(op>>2)%3
			var err error
			if kind == IFetch {
				err = ls.fetch(core, addr)
			} else {
				err = ls.access(core, kind, addr)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := ls.check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFuzzReachesEveryMachine fails once the lockstep lists more
// machines than FuzzHierarchyAccess's six mode bits can select, or two
// machines under one name, which the lockstep and the allocation gate
// name their subtests by.
func TestFuzzReachesEveryMachine(t *testing.T) {
	cases := lockstepConfigs()
	if len(cases) > 64 {
		t.Fatalf("%d lockstep machines, but the fuzz mode byte selects one of 64", len(cases))
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		if seen[tc.name] {
			t.Fatalf("two lockstep machines are named %q", tc.name)
		}
		seen[tc.name] = true
	}
}
