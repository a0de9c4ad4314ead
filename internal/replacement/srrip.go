package replacement

// srrip implements Static Re-Reference Interval Prediction with
// 2-bit re-reference prediction values (RRPVs). Lines are inserted with
// a "long" re-reference prediction (RRPV = max-1), promoted to "near
// immediate" (RRPV = 0) on a hit, and evicted when their RRPV reaches
// the "distant" value (max). When no way is distant, all RRPVs age in
// lockstep until one is. RRPVs live in one flat backing array indexed
// set*assoc+way.
type srrip struct {
	assoc int
	max   uint8
	rrpv  []uint8 // rrpv[set*assoc+way]
}

const srripBits = 2

func newSRRIP(numSets, assoc int) *srrip {
	p := &srrip{
		assoc: assoc,
		max:   1<<srripBits - 1,
		rrpv:  make([]uint8, numSets*assoc),
	}
	p.ResetState()
	return p
}

// ResetState marks every line distant, the fresh-table state.
func (p *srrip) ResetState() {
	for i := range p.rrpv {
		p.rrpv[i] = p.max
	}
}

// Touch promotes way to the near-immediate re-reference prediction.
func (p *srrip) Touch(set, way int) { p.rrpv[set*p.assoc+way] = 0 }

// Insert fills way with the long re-reference prediction.
func (p *srrip) Insert(set, way int) { p.rrpv[set*p.assoc+way] = p.max - 1 }

// Demote marks way distant, making it the next victim candidate.
func (p *srrip) Demote(set, way int) { p.rrpv[set*p.assoc+way] = p.max }

// Victim returns the first distant way, ageing the set until one exists.
func (p *srrip) Victim(set int) int {
	rr := p.rrpv[set*p.assoc : set*p.assoc+p.assoc]
	for {
		for w := range rr {
			if rr[w] == p.max {
				return w
			}
		}
		for w := range rr {
			rr[w]++
		}
	}
}

// WayRank is the way's re-reference prediction value (max = distant =
// next to evict).
func (p *srrip) WayRank(set, way int) uint8 { return p.rrpv[set*p.assoc+way] }
