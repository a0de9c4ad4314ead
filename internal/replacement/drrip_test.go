package replacement

import "testing"

// brripWinning returns a DRRIP policy whose selector is saturated
// toward BRRIP, so its follower sets insert as BRRIP does.
func brripWinning(t *testing.T) *drrip {
	t.Helper()
	p := newDRRIP(64, 4)
	for i := 0; i < 2*dipPselMax; i++ {
		p.Insert(0, i%4) // SRRIP-leader misses: votes for BRRIP
	}
	if p.psel != dipPselMax {
		t.Fatalf("PSEL = %d, want saturation at %d", p.psel, dipPselMax)
	}
	return p
}

// TestBRRIPInsertsDistant pins BRRIP's exact bimodal rate on a DRRIP
// follower set while BRRIP wins the duel: exactly one fill in
// bipEpsilonInverse lands at the long RRPV, the rest at distant.
func TestBRRIPInsertsDistant(t *testing.T) {
	p := brripWinning(t)
	long, distant := 0, 0
	for i := 0; i < bipEpsilonInverse*8; i++ {
		p.Insert(5, 1)
		switch p.rrpv[5*p.assoc+1] {
		case p.max:
			distant++
		case p.max - 1:
			long++
		default:
			t.Fatalf("unexpected RRPV %d after a follower fill", p.rrpv[5*p.assoc+1])
		}
	}
	if long != 8 || distant != 248 {
		t.Fatalf("follower fills: %d long and %d distant of 256, want exactly 8 and 248 (1/32)", long, distant)
	}
}

// TestBRRIPResistsThrash: on a DRRIP follower set while BRRIP wins, a
// touched resident survives a fill stream, because stream fills land
// distant and evict each other.
func TestBRRIPResistsThrash(t *testing.T) {
	p := brripWinning(t)
	p.Insert(5, 0)
	p.Touch(5, 0) // resident at RRPV 0
	for i := 0; i < 100; i++ {
		v := p.Victim(5)
		if v == 0 {
			t.Fatalf("iteration %d: BRRIP evicted the touched resident", i)
		}
		p.Insert(5, v)
	}
}

func TestDRRIPLeadersAndPsel(t *testing.T) {
	p := newDRRIP(64, 4)
	start := p.psel
	for i := 0; i < 7; i++ {
		p.Insert(0, i%4) // SRRIP leader set: votes for BRRIP
	}
	if p.psel != start+7 {
		t.Fatalf("PSEL = %d, want %d", p.psel, start+7)
	}
	for i := 0; i < 3; i++ {
		p.Insert(1, i%4) // BRRIP leader set: votes for SRRIP
	}
	if p.psel != start+4 {
		t.Fatalf("PSEL = %d, want %d", p.psel, start+4)
	}
	// SRRIP leader always inserts long.
	p.Insert(0, 2)
	if p.rrpv[0*p.assoc+2] != p.max-1 {
		t.Fatalf("SRRIP leader inserted at %d", p.rrpv[0*p.assoc+2])
	}
}

func TestDRRIPFollowersSwitch(t *testing.T) {
	p := newDRRIP(64, 4)
	// Saturate toward BRRIP.
	for i := 0; i < 2*dipPselMax; i++ {
		p.Insert(0, i%4)
	}
	if p.psel != dipPselMax {
		t.Fatalf("PSEL = %d", p.psel)
	}
	distant := 0
	for i := 0; i < 31; i++ {
		p.Insert(5, 1)
		if p.rrpv[5*p.assoc+1] == p.max {
			distant++
		}
	}
	if distant < 29 {
		t.Fatalf("with BRRIP winning, only %d/31 follower inserts were distant", distant)
	}
	// Saturate toward SRRIP.
	for i := 0; i < 3*dipPselMax; i++ {
		p.Insert(1, i%4)
	}
	p.Insert(6, 1)
	if p.rrpv[6*p.assoc+1] != p.max-1 {
		t.Fatalf("with SRRIP winning, follower inserted at %d", p.rrpv[6*p.assoc+1])
	}
}

func TestRRIPKindsRegistered(t *testing.T) {
	for _, k := range []Kind{DRRIP} {
		p := New(k, 4, 4)
		// Victim always valid.
		for i := 0; i < 20; i++ {
			p.Insert(i%4, i%4)
			v := p.Victim(i % 4)
			if v < 0 || v >= 4 {
				t.Fatalf("%v: victim %d out of range", k, v)
			}
		}
	}
}
