package replacement

// This file adds the set-dueling policies: DIP, the dynamic insertion
// policy of Qureshi et al. ("Adaptive Insertion Policies for High
// Performance Caching", ISCA 2007), and DRRIP (Dynamic RRIP, Jaleel et
// al., ISCA 2010 — the companion work the paper cites as [14]). The
// paper verified the inclusion problem against both among its
// "intelligent cache management policies [14, 15]".
//
// Each duels a base policy against its bimodal variant, which inserts
// new lines where they are evicted first and only one fill in
// bipEpsilonInverse where the base policy would, so a no-reuse stream
// evicts itself instead of the resident working set:
//
//   - DIP duels LRU (insert at MRU) against BIP (insert at LRU);
//   - DRRIP duels SRRIP (insert at the long RRPV) against BRRIP (insert
//     at the distant RRPV).
//
// Dedicated leader sets always use one side; follower sets use
// whichever side's leaders currently miss less, tracked by a
// saturating PSEL counter. DIP reuses the exact LRU recency stack and
// DRRIP the SRRIP table, so hits, demotions, victim search and the QBS
// promote-and-reselect contract behave exactly as in the base policy.

const (
	// One in bipEpsilonInverse bimodal insertions takes the base
	// policy's insertion position.
	bipEpsilonInverse = 32
	// dipLeaderPeriod spaces the leader sets: within each period the
	// first set leads for the base policy and the second for the
	// bimodal one (a simple static variant of the paper's set sampling).
	dipLeaderPeriod = 32
	// dipPselMax saturates the policy-selection counter.
	dipPselMax = 1024
)

// duel is the set-dueling state DIP and DRRIP share.
type duel struct {
	fills uint64 // bimodal insertions, for the 1-in-bipEpsilonInverse exception
	psel  int    // > half: the bimodal policy is winning
}

func newDuel() duel { return duel{psel: dipPselMax / 2} }

// dipLeader classifies a set: 0 = base-policy leader, 1 = bimodal
// leader, -1 follower.
func dipLeader(set int) int {
	switch set % dipLeaderPeriod {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return -1
	}
}

// baseInsert trains the selector on a fill into set and reports whether
// the fill takes the base policy's insertion position rather than the
// bimodal one. Insert is only called on fills, i.e. after a miss, so
// leader-set fills are exactly the training events.
func (d *duel) baseInsert(set int) bool {
	switch dipLeader(set) {
	case 0: // base leader missed: a vote for bimodal
		if d.psel < dipPselMax {
			d.psel++
		}
		return true
	case 1: // bimodal leader missed: a vote for the base policy
		if d.psel > 0 {
			d.psel--
		}
	default:
		if d.psel <= dipPselMax/2 {
			return true
		}
	}
	d.fills++
	return d.fills%bipEpsilonInverse == 0
}

type dip struct {
	*lru
	duel
}

func newDIP(numSets, assoc int) *dip { return &dip{lru: newLRU(numSets, assoc), duel: newDuel()} }

// ResetState clears the recency stacks, fill counter, and selector.
func (p *dip) ResetState() {
	p.lru.ResetState()
	p.duel = newDuel()
}

// Insert places the filled way at MRU (LRU) or at the LRU position
// (BIP).
func (p *dip) Insert(set, way int) {
	if p.baseInsert(set) {
		p.moveTo(set, way, 0)
		return
	}
	p.moveTo(set, way, p.assoc-1)
}

type drrip struct {
	*srrip
	duel
}

func newDRRIP(numSets, assoc int) *drrip {
	return &drrip{srrip: newSRRIP(numSets, assoc), duel: newDuel()}
}

// ResetState restores the RRPV table, fill counter, and selector.
func (p *drrip) ResetState() {
	p.srrip.ResetState()
	p.duel = newDuel()
}

// Insert fills way at the long RRPV (SRRIP) or the distant one (BRRIP).
func (p *drrip) Insert(set, way int) {
	if p.baseInsert(set) {
		p.rrpv[set*p.assoc+way] = p.max - 1
		return
	}
	p.rrpv[set*p.assoc+way] = p.max
}
