package replacement

import "fmt"

// random selects victims with a deterministic xorshift64 sequence so
// simulations stay reproducible. The victim for a set is latched until
// replacement state changes, preserving the Policy contract that
// repeated Victim calls agree.
type random struct {
	assoc  int
	state  uint64
	victim []int // latched victim per set, -1 when stale
}

// randomSeed is the fixed xorshift64 seed every fresh (or reset)
// Random policy starts from.
const randomSeed uint64 = 0x9e3779b97f4a7c15

func newRandom(numSets, assoc int) *random {
	p := &random{assoc: assoc, victim: make([]int, numSets)}
	p.ResetState()
	return p
}

// ResetState rewinds the victim rng and unlatches every set.
func (p *random) ResetState() {
	p.state = randomSeed
	for s := range p.victim {
		p.victim[s] = -1
	}
}

func (p *random) next() uint64 {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return p.state
}

func (p *random) Touch(set, way int) {
	// A touched way must stop being the latched victim so that QBS's
	// promote-and-reselect loop makes progress under Random too; the
	// replacement pick excludes the touched way.
	if p.victim[set] == way && p.assoc > 1 {
		v := int(p.next() % uint64(p.assoc-1))
		if v >= way {
			v++
		}
		p.victim[set] = v
	}
}

func (p *random) Insert(set, way int) { p.victim[set] = -1 }
func (p *random) Demote(set, way int) { p.victim[set] = way }

func (p *random) Victim(set int) int {
	if p.victim[set] < 0 {
		p.victim[set] = int(p.next() % uint64(p.assoc))
	}
	return p.victim[set]
}

// WayRank is RankUnknown: a random victim has no per-way order.
func (p *random) WayRank(set, way int) uint8 { return RankUnknown }

// CheckSet verifies the latched victim is either stale (-1) or a real
// way index.
func (p *random) CheckSet(set int) error {
	if v := p.victim[set]; v < -1 || v >= p.assoc {
		return fmt.Errorf("replacement: Random set %d latched victim %d out of range [0,%d)", set, v, p.assoc)
	}
	return nil
}
