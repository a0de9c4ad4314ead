package cache

import (
	"math/rand/v2"
	"testing"
)

func benchCache(b *testing.B) *Cache {
	b.Helper()
	c, err := New(Config{Name: "bench", Size: 32 << 10, Assoc: 8, LineSize: 64, Policy: 0})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkLookup measures Lookup hits on a full 4-way cache with the
// L1 geometry under three address patterns: one line over and over (the
// instruction-fetch pattern), a stride through every line (128
// consecutive hits land in the same way), and resident lines drawn at
// random, whose hit way a branch predictor cannot learn.
func BenchmarkLookup(b *testing.B) {
	c, err := New(Config{Name: "bench", Size: 32 << 10, Assoc: 4, LineSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	lines := c.NumSets() * 4
	for i := 0; i < lines; i++ {
		c.Fill(uint64(i)*64, 0)
	}
	const n = 4096 // addresses per pattern, a power of two
	rng := rand.New(rand.NewPCG(1, 2))
	patterns := []struct {
		name string
		addr func(i int) uint64
	}{
		{"same-line", func(i int) uint64 { return 0x1000 + uint64(i)%64 }},
		{"stride", func(i int) uint64 { return uint64(i%lines) * 64 }},
		{"random", func(int) uint64 { return uint64(rng.IntN(lines)) * 64 }},
	}
	for _, p := range patterns {
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = p.addr(i)
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok := c.Lookup(addrs[i&(n-1)]); !ok {
					b.Fatal("expected hit")
				}
			}
		})
	}
}

// BenchmarkFillEvict exercises the fill/evict path with a footprint
// twice the cache capacity.
func BenchmarkFillEvict(b *testing.B) {
	c := benchCache(b)
	lines := 2 * c.NumSets() * c.assoc
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i%lines)*64, 0)
	}
}
