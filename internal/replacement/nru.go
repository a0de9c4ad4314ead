package replacement

import "math/bits"

// nru implements Not Recently Used replacement, the paper's
// baseline LLC policy. Each line carries one reference bit; a reference
// sets the bit, and when every bit in a set would become 1 all other
// bits are cleared (a new "generation"). The victim is the
// lowest-indexed way whose bit is clear, so at least one victim always
// exists. A set's reference bits are one uint64, bit w for way w
// (caches stop at 64 ways), so the victim is one count of trailing
// ones.
type nru struct {
	last int      // the highest way, assoc-1
	full uint64   // the bits of every way: a set never keeps them all
	ref  []uint64 // ref[set], bit w = way w's reference bit
}

func newNRU(numSets, assoc int) *nru {
	// The mask is all-ones when assoc is 64: 1<<64 is 0 in Go.
	return &nru{last: assoc - 1, full: uint64(1)<<assoc - 1, ref: make([]uint64, numSets)}
}

// ResetState clears every reference bit.
func (p *nru) ResetState() { clear(p.ref) }

// mark sets way's reference bit, starting a new generation if the set
// would otherwise have every bit set.
func (p *nru) mark(set, way int) {
	r := p.ref[set] | 1<<way
	if r == p.full {
		r = 1 << way
	}
	p.ref[set] = r
}

// Touch records a reference to way.
func (p *nru) Touch(set, way int) { p.mark(set, way) }

// Insert records a fill into way.
func (p *nru) Insert(set, way int) { p.mark(set, way) }

// Demote clears way's reference bit so it is the next victim candidate.
func (p *nru) Demote(set, way int) { p.ref[set] &^= 1 << way }

// Victim returns the lowest-indexed way with a clear reference bit. A
// direct-mapped set keeps its only bit set, and its victim is way 0.
func (p *nru) Victim(set int) int {
	return min(bits.TrailingZeros64(^p.ref[set]), p.last)
}

// WayRank is 0 for a referenced way and 1 for an unreferenced one (the
// next-generation victim candidates).
func (p *nru) WayRank(set, way int) uint8 { return uint8(^p.ref[set] >> way & 1) }
