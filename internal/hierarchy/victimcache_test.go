package hierarchy

import "testing"

// vcOrder returns the victim cache's addresses MRU-first.
func vcOrder(v *victimCache) []uint64 {
	out := make([]uint64, len(v.addrs))
	copy(out, v.addrs)
	return out
}

func sameOrder(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestVictimCacheMRUOrder pins the recency discipline: inserts land at
// MRU, re-inserts promote, and the LRU entry is the one evicted.
func TestVictimCacheMRUOrder(t *testing.T) {
	v := newVictimCache(4)
	for _, a := range []uint64{0x40, 0x80, 0xc0, 0x100} {
		if _, _, ev := v.insert(a, false); ev {
			t.Fatalf("insert %#x evicted before capacity", a)
		}
	}
	if got := vcOrder(v); !sameOrder(got, []uint64{0x100, 0xc0, 0x80, 0x40}) {
		t.Fatalf("order after fills = %#v", got)
	}

	// Touching the LRU entry promotes it to MRU without changing length.
	v.insert(0x40, false)
	if got := vcOrder(v); !sameOrder(got, []uint64{0x40, 0x100, 0xc0, 0x80}) {
		t.Fatalf("order after promote = %#v", got)
	}
	if v.len() != 4 {
		t.Fatalf("promotion changed len to %d", v.len())
	}

	// A fresh insert at capacity evicts the current LRU (0x80).
	evAddr, _, evicted := v.insert(0x140, false)
	if !evicted || evAddr != 0x80 {
		t.Fatalf("eviction = (%#x, %v), want (0x80, true)", evAddr, evicted)
	}
	if got := vcOrder(v); !sameOrder(got, []uint64{0x140, 0x40, 0x100, 0xc0}) {
		t.Fatalf("order after eviction = %#v", got)
	}
}

// TestVictimCacheDirtyMerge verifies dirty state is sticky across
// re-insertion in both directions (dirty-then-clean, clean-then-dirty).
func TestVictimCacheDirtyMerge(t *testing.T) {
	v := newVictimCache(4)
	v.insert(0x40, true)
	v.insert(0x40, false) // clean re-insert must not launder the dirty bit
	if d, ok := v.remove(0x40); !ok || !d {
		t.Fatalf("dirty-then-clean remove = (%v, %v), want (true, true)", d, ok)
	}
	v.insert(0x80, false)
	v.insert(0x80, true)
	if d, ok := v.remove(0x80); !ok || !d {
		t.Fatalf("clean-then-dirty remove = (%v, %v), want (true, true)", d, ok)
	}
	if v.len() != 0 {
		t.Fatalf("len after removes = %d", v.len())
	}
}

// TestVictimCacheRemoveMiddle removes an entry from the middle of the
// recency list and checks the order of the survivors is preserved.
func TestVictimCacheRemoveMiddle(t *testing.T) {
	v := newVictimCache(4)
	for _, a := range []uint64{0x40, 0x80, 0xc0} {
		v.insert(a, false)
	}
	if _, ok := v.remove(0x80); !ok {
		t.Fatal("middle entry not found")
	}
	if got := vcOrder(v); !sameOrder(got, []uint64{0xc0, 0x40}) {
		t.Fatalf("order after middle remove = %#v", got)
	}
	// The removed entry is really gone.
	if _, ok := v.remove(0x80); ok {
		t.Fatal("removed entry still present")
	}
}

// TestVictimCacheCapacityOne exercises the degenerate single-entry
// buffer: every insert of a new address evicts the previous one.
func TestVictimCacheCapacityOne(t *testing.T) {
	v := newVictimCache(1)
	v.insert(0x40, true)
	evAddr, evDirty, evicted := v.insert(0x80, false)
	if !evicted || evAddr != 0x40 || !evDirty {
		t.Fatalf("eviction = (%#x, %v, %v), want (0x40, true, true)", evAddr, evDirty, evicted)
	}
	if v.len() != 1 || v.addrs[0] != 0x80 {
		t.Fatalf("state after eviction: len %d, addrs %#v", v.len(), v.addrs)
	}
	// Re-inserting the sole entry must not evict it.
	if _, _, ev := v.insert(0x80, false); ev {
		t.Fatal("self-replacement evicted")
	}
}

// TestVictimCacheUnderAuditor drives a hierarchy with an attached
// victim cache through enough conflict traffic to fill, hit, and spill
// it, in lockstep with the reference hierarchy and checking the full
// state every 16 accesses. The victim cache sits outside the inclusion
// property (its lines are by definition no longer in the LLC), so the
// check must stay green while lines migrate LLC -> victim cache -> LLC.
func TestVictimCacheUnderAuditor(t *testing.T) {
	cfg := smallConfig(2)
	cfg.VictimCacheEntries = 32 // the paper's §VI configuration
	ls := newLockstep(t, cfg, false)
	h := ls.h

	// Cyclically walk more lines than the 64-line LLC holds. Each access
	// past capacity evicts a line into the victim cache; with an 80-line
	// working set a line wraps back around while still among the 32 most
	// recent evictions, so the rewalk both fills and hits the buffer.
	const lines = 80
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			if err := ls.access(i%2, Load, uint64(i)*64); err != nil {
				t.Fatal(err)
			}
			if i%16 == 15 {
				if err := ls.check(); err != nil {
					t.Fatalf("pass %d line %d: %v", pass, i, err)
				}
			}
		}
	}
	if h.Traffic.VictimCacheFills == 0 {
		t.Fatal("conflict traffic never filled the victim cache")
	}
	if h.Traffic.VictimCacheHits == 0 {
		t.Fatal("rewalks never hit the victim cache")
	}
	if err := ls.check(); err != nil {
		t.Fatal(err)
	}

	// Reset must empty the victim cache along with everything else.
	h.Reset(cfg)
	if h.vc.len() != 0 {
		t.Fatalf("victim cache holds %d entries after Reset", h.vc.len())
	}
	ls.o = newRefHierarchy(cfg) // a reset machine equals a fresh one
	ls.mustAgree(t)
}
