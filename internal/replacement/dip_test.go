package replacement

import "testing"

// bipWinning returns a DIP policy whose selector is saturated toward
// BIP, so its follower sets insert as BIP does.
func bipWinning(t *testing.T) *dip {
	t.Helper()
	p := newDIP(64, 4)
	for i := 0; i < 2*dipPselMax; i++ {
		p.Insert(0, i%4) // LRU-leader misses: votes for BIP
	}
	if p.psel != dipPselMax {
		t.Fatalf("PSEL = %d, want saturation at %d", p.psel, dipPselMax)
	}
	return p
}

// TestBIPOccasionallyInsertsAtMRU pins BIP's exact bimodal rate on a
// DIP follower set while BIP wins the duel: exactly one fill in
// bipEpsilonInverse lands at MRU, the rest at the LRU position.
func TestBIPOccasionallyInsertsAtMRU(t *testing.T) {
	p := bipWinning(t)
	mru, atLRU := 0, 0
	for i := 0; i < bipEpsilonInverse*10; i++ {
		p.Insert(5, 1)
		switch p.WayRank(5, 1) {
		case 0:
			mru++
		case 3:
			atLRU++
		default:
			t.Fatalf("follower fill at stack position %d", p.WayRank(5, 1))
		}
	}
	if mru != 10 || atLRU != 310 {
		t.Fatalf("follower fills: %d at MRU and %d at LRU of 320, want exactly 10 and 310 (1/32)", mru, atLRU)
	}
}

// TestBIPStreamProtectsResidents: on a DIP follower set while BIP
// wins, a no-reuse stream keeps evicting the same way while touched
// residents survive.
func TestBIPStreamProtectsResidents(t *testing.T) {
	p := bipWinning(t)
	for w := 0; w < 4; w++ {
		p.Insert(5, w)
	}
	for i := 0; i < 100; i++ {
		for w := 0; w < 3; w++ {
			p.Touch(5, w) // ways 0-2 are the residents
		}
		v := p.Victim(5)
		if v != 3 {
			t.Fatalf("iteration %d: victim = %d, want streaming way 3", i, v)
		}
		p.Insert(5, v)
	}
}

func TestDIPLeaderAssignment(t *testing.T) {
	if dipLeader(0) != 0 || dipLeader(32) != 0 {
		t.Error("sets 0 and 32 must lead for LRU")
	}
	if dipLeader(1) != 1 || dipLeader(33) != 1 {
		t.Error("sets 1 and 33 must lead for BIP")
	}
	if dipLeader(2) != -1 || dipLeader(31) != -1 {
		t.Error("other sets must be followers")
	}
}

func TestDIPPselMovesWithLeaderMisses(t *testing.T) {
	p := newDIP(64, 4)
	start := p.psel
	// Misses in the LRU leader set vote for BIP.
	for i := 0; i < 10; i++ {
		p.Insert(0, i%4)
	}
	if p.psel != start+10 {
		t.Fatalf("PSEL after LRU-leader misses = %d, want %d", p.psel, start+10)
	}
	// Misses in the BIP leader set vote for LRU.
	for i := 0; i < 4; i++ {
		p.Insert(1, i%4)
	}
	if p.psel != start+6 {
		t.Fatalf("PSEL after BIP-leader misses = %d, want %d", p.psel, start+6)
	}
}

func TestDIPPselSaturates(t *testing.T) {
	p := newDIP(64, 4)
	for i := 0; i < dipPselMax*2; i++ {
		p.Insert(0, i%4)
	}
	if p.psel != dipPselMax {
		t.Fatalf("PSEL = %d, want saturation at %d", p.psel, dipPselMax)
	}
	for i := 0; i < dipPselMax*3; i++ {
		p.Insert(1, i%4)
	}
	if p.psel != 0 {
		t.Fatalf("PSEL = %d, want saturation at 0", p.psel)
	}
}

func TestDIPFollowersObeyWinner(t *testing.T) {
	p := newDIP(64, 4)
	// Drive PSEL high: BIP wins; follower inserts go (mostly) to LRU.
	for i := 0; i < dipPselMax; i++ {
		p.Insert(0, i%4)
	}
	lruInserts := 0
	for i := 0; i < 31; i++ { // 31 fills: below the 1/32 MRU break
		p.Insert(5, 2)
		if p.WayRank(5, 2) == 3 {
			lruInserts++
		}
	}
	if lruInserts < 29 {
		t.Fatalf("with BIP winning, only %d/31 follower inserts went to LRU", lruInserts)
	}
	// Drive PSEL low: LRU wins; follower inserts go to MRU.
	for i := 0; i < 2*dipPselMax; i++ {
		p.Insert(1, i%4)
	}
	p.Insert(6, 1)
	if p.WayRank(6, 1) != 0 {
		t.Fatal("with LRU winning, follower insert not at MRU")
	}
}

func TestNewKindsRegistered(t *testing.T) {
	p := New(DIP, 4, 4)
	if _, ok := p.(*dip); !ok {
		t.Errorf("New(DIP) built a %T, want *dip", p)
	}
}

// TestInsertionPoliciesKeepQBSContract extends the promote-and-reselect
// guarantee to DIP on leader and follower sets alike.
func TestInsertionPoliciesKeepQBSContract(t *testing.T) {
	for _, k := range []Kind{DIP} {
		p := New(k, 4, 4)
		for i := 0; i < 50; i++ {
			set := i % 4
			p.Insert(set, i%4)
			v := p.Victim(set)
			p.Touch(set, v)
			if p.Victim(set) == v {
				t.Fatalf("%v: victim unchanged after Touch", k)
			}
		}
	}
}
