package replacement

import "math/bits"

// lruNibbleOnes and lruNibbleHighs are the SWAR masks for locating a
// nibble by value: repeated 0x1 and repeated 0x8.
const (
	lruNibbleOnes  = 0x1111_1111_1111_1111
	lruNibbleHighs = 0x8888_8888_8888_8888
	// lruIdentity is the identity recency order for the packed
	// representation: nibble p holds way p.
	lruIdentity = 0xFEDC_BA98_7654_3210
)

// lru keeps an exact recency stack per set. Position 0 is the MRU
// way and position assoc-1 the LRU way.
//
// Two representations share the type. For assoc <= 16 — every cache
// geometry the simulator actually builds — each set's stack packs into
// one uint64 of nibbles (nibble p = the way at recency position p, MRU
// in the low nibble, nibbles at and above assoc always zero), so
// promotion and demotion are a handful of shift/mask operations instead
// of an O(assoc) byte shuffle, and the way's current position is found
// with a branch-free SWAR nibble search. Wider caches (up to 256 ways)
// fall back to explicit stack/inverse byte arrays, both flat and
// indexed set*assoc+i.
type lru struct {
	assoc  int
	packed []uint64 // assoc <= 16: packed[set], nibble p = way at position p
	stack  []uint8  // assoc > 16: stack[set*assoc+pos] = way
	pos    []uint8  // assoc > 16: pos[set*assoc+way] = position (inverse map)
}

func newLRU(numSets, assoc int) *lru {
	if assoc > 256 {
		panic("replacement: LRU supports at most 256 ways")
	}
	p := &lru{assoc: assoc}
	if assoc <= 16 {
		p.packed = make([]uint64, numSets)
	} else {
		p.stack = make([]uint8, numSets*assoc)
		p.pos = make([]uint8, numSets*assoc)
	}
	p.ResetState()
	return p
}

// ResetState restores the initial recency order (way i at position i).
func (p *lru) ResetState() {
	if p.packed != nil {
		// The mask is all-ones when assoc is 16: 1<<64 is 0 in Go.
		id := uint64(lruIdentity) & (uint64(1)<<(4*p.assoc) - 1)
		for s := range p.packed {
			p.packed[s] = id
		}
		return
	}
	for i := range p.stack {
		w := uint8(i % p.assoc)
		p.stack[i] = w
		p.pos[i] = w
	}
}

// nibblePos returns the position of the lowest nibble of v equal to way
// (way < 16, which the packed representation guarantees). The borrow
// trick flags zero nibbles of v^(way*ones); a borrow can only originate
// at a genuine zero nibble, so the lowest flag is always exact.
func nibblePos(v, way uint64) int {
	x := v ^ way*lruNibbleOnes
	return bits.TrailingZeros64((x-lruNibbleOnes)&^x&lruNibbleHighs) >> 2
}

// moveTo moves way to position target within set's stack, shifting the
// intervening entries by one.
func (p *lru) moveTo(set, way, target int) {
	if p.packed != nil {
		v := p.packed[set]
		cur := nibblePos(v, uint64(way))
		// Delete way's nibble (everything above it shifts down one),
		// then reopen a slot at target (everything at and above it
		// shifts back up) and place way there. Nibbles at and above
		// assoc stay zero throughout.
		low := uint64(1)<<(4*cur) - 1
		v = v&low | v>>4&^low
		low = uint64(1)<<(4*target) - 1
		p.packed[set] = v&low | (v&^low)<<4 | uint64(way)<<(4*target)
		return
	}
	base := set * p.assoc
	st := p.stack[base : base+p.assoc]
	pos := p.pos[base : base+p.assoc]
	cur := int(pos[way])
	if cur == target {
		return
	}
	if cur < target {
		// Shift entries (cur, target] left by one.
		for i := cur; i < target; i++ {
			st[i] = st[i+1]
			pos[st[i]] = uint8(i)
		}
	} else {
		// Shift entries [target, cur) right by one.
		for i := cur; i > target; i-- {
			st[i] = st[i-1]
			pos[st[i]] = uint8(i)
		}
	}
	st[target] = uint8(way)
	pos[way] = uint8(target)
}

// Touch promotes way to MRU. The packed splice needs no already-MRU
// case: at position 0 it rewrites the stack unchanged.
func (p *lru) Touch(set, way int) {
	if p.packed != nil {
		v := p.packed[set]
		cur := nibblePos(v, uint64(way))
		low := v & (uint64(1)<<(4*cur) - 1)
		p.packed[set] = v&^(uint64(1)<<(4*(cur+1))-1) | low<<4 | uint64(way)
		return
	}
	p.moveTo(set, way, 0)
}

// Insert places a newly filled way at MRU.
func (p *lru) Insert(set, way int) { p.Touch(set, way) }

// Demote moves way to the LRU position.
func (p *lru) Demote(set, way int) { p.moveTo(set, way, p.assoc-1) }

// Victim returns the LRU way of set.
func (p *lru) Victim(set int) int {
	if p.packed != nil {
		return int(p.packed[set] >> (4 * (p.assoc - 1)) & 0xF)
	}
	return int(p.stack[set*p.assoc+p.assoc-1])
}

// WayRank is way's recency-stack distance from MRU, so the LRU way has
// rank assoc-1.
func (p *lru) WayRank(set, way int) uint8 {
	if p.packed != nil {
		return uint8(nibblePos(p.packed[set], uint64(way)))
	}
	return p.pos[set*p.assoc+way]
}
