package replacement

import (
	"testing"
	"testing/quick"
)

func TestLRUInitialVictimIsLastWay(t *testing.T) {
	p := newLRU(4, 8)
	for s := 0; s < 4; s++ {
		if got := p.Victim(s); got != 7 {
			t.Errorf("set %d: initial victim = %d, want 7", s, got)
		}
	}
}

func TestLRUTouchMovesToMRU(t *testing.T) {
	p := newLRU(1, 4)
	p.Touch(0, 2)
	if got := p.WayRank(0, 2); got != 0 {
		t.Fatalf("touched way position = %d, want 0 (MRU)", got)
	}
	if got := p.Victim(0); got == 2 {
		t.Fatalf("victim = touched way %d", got)
	}
}

func TestLRUVictimIsLeastRecentlyTouched(t *testing.T) {
	p := newLRU(1, 4)
	// Touch ways in order 3,1,0,2; way 3 is now least recently used.
	for _, w := range []int{3, 1, 0, 2} {
		p.Touch(0, w)
	}
	if got := p.Victim(0); got != 3 {
		t.Fatalf("victim = %d, want 3", got)
	}
}

func TestLRUDemoteMakesVictim(t *testing.T) {
	p := newLRU(1, 8)
	for w := 0; w < 8; w++ {
		p.Touch(0, w)
	}
	p.Demote(0, 4)
	if got := p.Victim(0); got != 4 {
		t.Fatalf("victim after demote = %d, want 4", got)
	}
}

func TestLRUSetsAreIndependent(t *testing.T) {
	p := newLRU(2, 4)
	p.Touch(0, 3)
	if got := p.Victim(1); got != 3 {
		t.Fatalf("set 1 victim = %d; touching set 0 must not affect set 1", got)
	}
}

// refLRU is a trivially-correct reference: a slice ordered MRU-first.
type refLRU []int

func newRefLRU(assoc int) refLRU {
	r := make(refLRU, assoc)
	for i := range r {
		r[i] = i
	}
	return r
}

func (r refLRU) promote(way int) {
	idx := 0
	for i, w := range r {
		if w == way {
			idx = i
			break
		}
	}
	copy(r[1:idx+1], r[:idx])
	r[0] = way
}

func (r refLRU) demote(way int) {
	idx := 0
	for i, w := range r {
		if w == way {
			idx = i
			break
		}
	}
	copy(r[idx:], r[idx+1:len(r)])
	r[len(r)-1] = way
}

// TestLRUMatchesReferenceModel drives both LRU representations — the
// packed nibble stack (assoc 16 and a non-power-of-two 5) and the wide
// byte-array fallback (assoc 20) — against the obviously-correct slice
// model with the same random operation stream, requiring identical
// victims and stack positions throughout.
func TestLRUMatchesReferenceModel(t *testing.T) {
	for _, assoc := range []int{5, 16, 20} {
		assoc := assoc
		f := func(ops []uint16) bool {
			p := newLRU(1, assoc)
			ref := newRefLRU(assoc)
			for _, op := range ops {
				way := int(op) % assoc
				switch (int(op) / assoc) % 3 {
				case 0:
					p.Touch(0, way)
					ref.promote(way)
				case 1:
					p.Insert(0, way)
					ref.promote(way)
				case 2:
					p.Demote(0, way)
					ref.demote(way)
				}
				if p.Victim(0) != ref[assoc-1] {
					return false
				}
				for i, w := range ref {
					if int(p.WayRank(0, w)) != i {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("assoc %d: %v", assoc, err)
		}
	}
}

// ranksArePermutation reports whether set's LRU ranks name every
// recency position exactly once and the victim is the way at the last.
func ranksArePermutation(p Policy, set, assoc int) bool {
	seen := make([]bool, assoc)
	for w := range assoc {
		r := int(p.WayRank(set, w))
		if r >= assoc || seen[r] || r == assoc-1 && p.Victim(set) != w {
			return false
		}
		seen[r] = true
	}
	return true
}

// TestLRUStackIsPermutation checks the recency stack remains a
// permutation of the ways under random operations, in both
// representations.
func TestLRUStackIsPermutation(t *testing.T) {
	for _, assoc := range []int{8, 20} {
		assoc := assoc
		f := func(ops []uint8) bool {
			p := newLRU(2, assoc)
			for _, op := range ops {
				way := int(op) % assoc
				switch (int(op) / assoc) % 3 {
				case 0:
					p.Touch(0, way)
				case 1:
					p.Insert(0, way)
				case 2:
					p.Demote(0, way)
				}
				// Set 0 churns; set 1 must stay untouched and valid.
				for s := 0; s < 2; s++ {
					if !ranksArePermutation(p, s, assoc) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("assoc %d: %v", assoc, err)
		}
	}
}
