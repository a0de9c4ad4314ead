package hierarchy

import (
	"encoding/binary"
	"testing"

	"tlacache/internal/telemetry"
)

// FuzzHierarchyAccess drives a hierarchy with an arbitrary access
// stream under a fuzzer-chosen machine mode and audits continuously:
// no input sequence may ever corrupt inclusion, cache structure, or
// counter accounting.
func FuzzHierarchyAccess(f *testing.F) {
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	for mode := byte(0); mode < 6; mode++ {
		f.Add(seed, mode)
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
		cfg := smallConfig(2)
		switch mode % 6 {
		case 1:
			cfg.TLA = TLATLH
		case 2:
			cfg.TLA = TLAECI
		case 3:
			cfg.TLA = TLAQBS
		case 4:
			cfg.Inclusion = NonInclusive
		case 5:
			cfg.Inclusion = Exclusive
		}
		cfg.EnablePrefetch = mode&0x40 != 0
		h := MustNew(cfg)
		h.SetTelemetry(telemetry.NewRecorder(0))
		a := NewAuditor(h)

		for i := 0; i+4 <= len(data); i += 4 {
			op := binary.LittleEndian.Uint32(data[i:])
			addr := uint64(op>>4) % (64 << 10)
			if op&2 != 0 {
				// Mirror the access into the top of the 64-bit address
				// space so prefetch emission, line rounding, and set
				// indexing get exercised at the overflow boundary.
				addr = ^uint64(0) - addr
			}
			h.Access(int(op%2), AccessKind(op>>2)%3, addr)
			if i%256 == 252 {
				if err := a.Audit(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := a.Audit(); err != nil {
			t.Fatal(err)
		}
	})
}
