package replacement

import (
	"testing"
	"testing/quick"
)

func allKinds() []Kind { return []Kind{LRU, NRU, SRRIP, DIP, DRRIP} }

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, tc := range []struct{ sets, assoc int }{{0, 4}, {4, 0}, {-1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(LRU, %d, %d) did not panic", tc.sets, tc.assoc)
				}
			}()
			New(LRU, tc.sets, tc.assoc)
		}()
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{LRU: "LRU", NRU: "NRU", SRRIP: "SRRIP", DIP: "DIP", DRRIP: "DRRIP"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

// TestVictimInRange: for every policy, under arbitrary operation
// sequences, Victim stays within [0, assoc) and is stable between
// state changes.
func TestVictimInRange(t *testing.T) {
	const assoc = 16
	for _, kind := range allKinds() {
		kind := kind
		f := func(ops []uint16) bool {
			p := New(kind, 2, assoc)
			for _, op := range ops {
				set := int(op) % 2
				way := (int(op) / 2) % assoc
				switch (int(op) / (2 * assoc)) % 3 {
				case 0:
					p.Touch(set, way)
				case 1:
					p.Insert(set, way)
				case 2:
					p.Demote(set, way)
				}
				v := p.Victim(set)
				if v < 0 || v >= assoc {
					return false
				}
				if p.Victim(set) != v {
					return false // not stable
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

// TestTouchEvictsDifferentWay verifies the QBS progress guarantee:
// after Touch(victim), the next victim differs (assoc >= 2). SRRIP is
// exempt — see TestSRRIPMayRepeatVictimWhenSaturated — and the
// hierarchy's QBS loop handles its fixed point explicitly.
func TestTouchEvictsDifferentWay(t *testing.T) {
	const assoc = 4
	for _, kind := range []Kind{LRU, NRU, DIP} {
		kind := kind
		f := func(ops []uint8, probes []bool) bool {
			p := New(kind, 1, assoc)
			for _, op := range ops {
				way := int(op) % assoc
				if int(op)/assoc%2 == 0 {
					p.Touch(0, way)
				} else {
					p.Insert(0, way)
				}
			}
			// Simulate a QBS promote-and-reselect chain.
			for range probes {
				v := p.Victim(0)
				p.Touch(0, v)
				if p.Victim(0) == v {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

// TestSRRIPMayRepeatVictimWhenSaturated documents SRRIP's known
// exception to the promote-and-reselect guarantee: when the touched way
// was the only distant line and every other line is near-immediate,
// aging saturates all RRPVs together and the scan returns the touched
// way again.
func TestSRRIPMayRepeatVictimWhenSaturated(t *testing.T) {
	p := newSRRIP(1, 4)
	p.Insert(0, 1)
	p.Touch(0, 1)
	p.Touch(0, 2)
	p.Touch(0, 3) // state: [3,0,0,0]
	v := p.Victim(0)
	if v != 0 {
		t.Fatalf("victim = %d, want 0", v)
	}
	p.Touch(0, v) // all ways now RRPV 0
	if got := p.Victim(0); got != v {
		t.Fatalf("expected the documented fixed point, got way %d", got)
	}
}

func TestNRUVictimPrefersUnreferenced(t *testing.T) {
	p := newNRU(1, 4)
	p.Insert(0, 0)
	p.Insert(0, 1)
	// Ways 2 and 3 are unreferenced; way 2 has the lower index.
	if got := p.Victim(0); got != 2 {
		t.Fatalf("victim = %d, want 2", got)
	}
}

func TestNRUGenerationRollover(t *testing.T) {
	p := newNRU(1, 4)
	for w := 0; w < 4; w++ {
		p.Insert(0, w)
	}
	// The last insert (way 3) triggered a new generation: only way 3
	// keeps its bit, so way 0 is the victim.
	if got := p.Victim(0); got != 0 {
		t.Fatalf("victim after rollover = %d, want 0", got)
	}
	if p.ref[0] != 1<<3 {
		t.Fatalf("reference bits after rollover = %04b, want 1000", p.ref[0])
	}
}

// TestNRUDirectMapped: a one-way set keeps its only bit set across
// generations, and its victim stays way 0.
func TestNRUDirectMapped(t *testing.T) {
	p := newNRU(2, 1)
	for range 3 {
		p.Insert(1, 0)
		if got := p.Victim(1); got != 0 {
			t.Fatalf("victim = %d, want 0", got)
		}
		if r := p.WayRank(1, 0); r != 0 {
			t.Fatalf("rank = %d, want 0 (referenced)", r)
		}
	}
}

func TestNRUDemote(t *testing.T) {
	p := newNRU(1, 4)
	p.Insert(0, 0)
	p.Insert(0, 1)
	p.Demote(0, 0)
	if got := p.Victim(0); got != 0 {
		t.Fatalf("victim = %d, want demoted way 0", got)
	}
	// Demoting an already-clear bit changes nothing.
	p.Demote(0, 0)
	if p.ref[0] != 1<<1 {
		t.Fatalf("reference bits = %04b, want 0010", p.ref[0])
	}
}

func TestSRRIPInsertHasLongReference(t *testing.T) {
	p := newSRRIP(1, 4)
	p.Insert(0, 1)
	// Way 1 was inserted at RRPV max-1; the others sit at max, so the
	// victim must be the first distant way, way 0.
	if got := p.Victim(0); got != 0 {
		t.Fatalf("victim = %d, want 0", got)
	}
	if p.rrpv[0*p.assoc+1] != p.max-1 {
		t.Fatalf("inserted RRPV = %d, want %d", p.rrpv[0*p.assoc+1], p.max-1)
	}
}

func TestSRRIPAgingFindsVictim(t *testing.T) {
	p := newSRRIP(1, 2)
	p.Insert(0, 0)
	p.Insert(0, 1)
	p.Touch(0, 0)
	p.Touch(0, 1)
	// No way is distant; Victim must age everyone until one is, and
	// terminate.
	v := p.Victim(0)
	if v != 0 {
		t.Fatalf("victim = %d, want 0 (lowest index after aging)", v)
	}
}
