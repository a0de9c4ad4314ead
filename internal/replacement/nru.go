package replacement

import "fmt"

// nru implements Not Recently Used replacement, the paper's
// baseline LLC policy. Each line carries one reference bit; a reference
// sets the bit, and when every bit in a set would become 1 all other
// bits are cleared (a new "generation"). The victim is the
// lowest-indexed way whose bit is clear, so at least one victim always
// exists. Reference bits live in one flat backing array indexed
// set*assoc+way.
type nru struct {
	assoc int
	ref   []bool  // ref[set*assoc+way]
	live  []int32 // number of set bits per set, to detect generations
}

func newNRU(numSets, assoc int) *nru {
	return &nru{
		assoc: assoc,
		ref:   make([]bool, numSets*assoc),
		live:  make([]int32, numSets),
	}
}

// ResetState clears every reference bit.
func (p *nru) ResetState() {
	for i := range p.ref {
		p.ref[i] = false
	}
	for i := range p.live {
		p.live[i] = 0
	}
}

// mark sets way's reference bit, starting a new generation if the set
// would otherwise have every bit set.
func (p *nru) mark(set, way int) {
	base := set * p.assoc
	if !p.ref[base+way] {
		p.ref[base+way] = true
		p.live[set]++
	}
	if int(p.live[set]) == p.assoc {
		row := p.ref[base : base+p.assoc]
		for w := range row {
			row[w] = w == way
		}
		p.live[set] = 1
	}
}

// Touch records a reference to way.
func (p *nru) Touch(set, way int) { p.mark(set, way) }

// Insert records a fill into way.
func (p *nru) Insert(set, way int) { p.mark(set, way) }

// Demote clears way's reference bit so it is the next victim candidate.
func (p *nru) Demote(set, way int) {
	if p.ref[set*p.assoc+way] {
		p.ref[set*p.assoc+way] = false
		p.live[set]--
	}
}

// Victim returns the lowest-indexed way with a clear reference bit.
func (p *nru) Victim(set int) int {
	row := p.ref[set*p.assoc : set*p.assoc+p.assoc]
	for w := range row {
		if !row[w] {
			return w
		}
	}
	// Unreachable: mark never leaves a set fully referenced.
	return 0
}

// WayRank is 0 for a referenced way and 1 for an unreferenced one (the
// next-generation victim candidates).
func (p *nru) WayRank(set, way int) uint8 {
	if p.ref[set*p.assoc+way] {
		return 0
	}
	return 1
}

// CheckSet verifies the NRU generation invariant: the live count must
// equal the number of set reference bits, and a set is never fully
// referenced (mark starts a new generation instead), so Victim always
// has a candidate.
func (p *nru) CheckSet(set int) error {
	n := 0
	for _, r := range p.ref[set*p.assoc : set*p.assoc+p.assoc] {
		if r {
			n++
		}
	}
	if n != int(p.live[set]) {
		return fmt.Errorf("replacement: NRU set %d live count %d but %d reference bits set", set, p.live[set], n)
	}
	if p.assoc > 1 && n == p.assoc {
		return fmt.Errorf("replacement: NRU set %d fully referenced: no victim candidate", set)
	}
	return nil
}
