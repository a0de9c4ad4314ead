package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"tlacache/internal/replacement"
)

func tiny(t *testing.T, size int64, assoc int, pol replacement.Kind) *Cache {
	t.Helper()
	c, err := New(Config{Name: "T", Size: size, Assoc: assoc, LineSize: 64, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	cases := []Config{
		{Name: "odd-line", Size: 1024, Assoc: 4, LineSize: 48, Policy: replacement.LRU},
		{Name: "zero-line", Size: 1024, Assoc: 4, LineSize: 0, Policy: replacement.LRU},
		{Name: "zero-assoc", Size: 1024, Assoc: 0, LineSize: 64, Policy: replacement.LRU},
		{Name: "wide-assoc", Size: 128 * 64, Assoc: 128, LineSize: 64, Policy: replacement.LRU},
		{Name: "indivisible", Size: 1000, Assoc: 4, LineSize: 64, Policy: replacement.LRU},
		{Name: "non-pow2-sets", Size: 3 * 64 * 4, Assoc: 4, LineSize: 64, Policy: replacement.LRU},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid geometry %+v", cfg.Name, cfg)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{Size: 7})
}

func TestAddressMapping(t *testing.T) {
	c := tiny(t, 4096, 4, replacement.LRU) // 16 sets x 4 ways x 64B
	if c.NumSets() != 16 {
		t.Fatalf("NumSets = %d, want 16", c.NumSets())
	}
	if got := c.LineAddr(0x12345); got != 0x12340 {
		t.Errorf("LineAddr(0x12345) = %#x, want 0x12340", got)
	}
	if got := c.SetIndex(0x12345); got != int(0x12345>>6&15) {
		t.Errorf("SetIndex = %d", got)
	}
	// Two addresses on the same line map to the same set/way.
	c.Fill(0x1000, 0)
	if !c.Contains(0x103f) {
		t.Error("address on same line not found after fill")
	}
	if c.Contains(0x1040) {
		t.Error("next line reported present")
	}
}

// TestAddressMappingBoundaries pins LineAddr and SetIndex at the edges
// of the 64-bit address space: both are pure bit arithmetic and must be
// total — no overflow, no out-of-range set — and a line at the very top
// must be fillable, findable, and invalidatable like any other.
func TestAddressMappingBoundaries(t *testing.T) {
	c := tiny(t, 4096, 4, replacement.LRU) // 16 sets x 4 ways x 64B
	top := ^uint64(0)
	if got := c.LineAddr(top); got != top&^63 {
		t.Errorf("LineAddr(max) = %#x, want %#x", got, top&^63)
	}
	if got := c.LineAddr(0); got != 0 {
		t.Errorf("LineAddr(0) = %#x, want 0", got)
	}
	for _, addr := range []uint64{0, 63, 64, top, top &^ 63, top - 64} {
		if s := c.SetIndex(addr); s < 0 || s >= c.NumSets() {
			t.Fatalf("SetIndex(%#x) = %d, outside [0,%d)", addr, s, c.NumSets())
		}
	}
	c.Fill(top, 0)
	if !c.Contains(top &^ 63) {
		t.Fatal("line at top of address space not found after fill")
	}
	if c.Contains(top&^63 - 64) {
		t.Fatal("neighbouring line reported present")
	}
	if _, ok := c.Invalidate(top); !ok {
		t.Fatal("line at top of address space not invalidatable")
	}
	if c.CountValid() != 0 {
		t.Fatalf("CountValid = %d after invalidate", c.CountValid())
	}
}

func TestFillEvictsLRUVictim(t *testing.T) {
	c := tiny(t, 64*2, 2, replacement.LRU) // 1 set x 2 ways
	c.Fill(0x0, 0)
	c.Fill(0x40, 0)
	c.Touch(0x0) // make 0x40 the LRU line
	victim, evicted := c.Fill(0x80, 0)
	if !evicted || victim.Addr != 0x40 {
		t.Fatalf("victim = %+v evicted=%v, want line 0x40", victim, evicted)
	}
	if !c.Contains(0x0) || !c.Contains(0x80) || c.Contains(0x40) {
		t.Fatal("cache contents wrong after eviction")
	}
	if c.Stats.Fills != 3 || c.Stats.Evictions != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestFillPrefersInvalidWays(t *testing.T) {
	c := tiny(t, 64*4, 4, replacement.LRU)
	for i := 0; i < 4; i++ {
		if _, evicted := c.Fill(uint64(i)*0x40, 0); evicted {
			t.Fatalf("fill %d evicted despite invalid ways remaining", i)
		}
	}
	if _, evicted := c.Fill(0x100, 0); !evicted {
		t.Fatal("fill into full set did not evict")
	}
}

func TestInvalidateFreesWayForReuse(t *testing.T) {
	c := tiny(t, 64*2, 2, replacement.LRU)
	c.Fill(0x0, 0b01)
	c.SetDirty(0x0)
	c.Fill(0x40, 0)
	line, ok := c.Invalidate(0x0)
	if want := (Line{Addr: 0x0, Valid: true, Dirty: true, Presence: 0b01}); !ok || line != want {
		t.Fatalf("Invalidate returned %+v, %v; want %+v", line, ok, want)
	}
	if c.Stats.Invalidations != 1 {
		t.Fatalf("Invalidations = %d", c.Stats.Invalidations)
	}
	// Next fill must reuse the hole rather than evicting 0x40, and the
	// refilled way must carry only the fill's state: a clean line with
	// the fill's presence mask, nothing of the dirty line that left.
	if _, evicted := c.Fill(0x80, 0b10); evicted {
		t.Fatal("fill evicted a valid line while an invalid way existed")
	}
	set, way, ok := c.Lookup(0x80)
	if want := (Line{Addr: 0x80, Valid: true, Presence: 0b10}); !ok || c.Line(set, way) != want {
		t.Fatalf("refilled way holds %+v, want %+v", c.Line(set, way), want)
	}
	if !c.Contains(0x40) {
		t.Fatal("line 0x40 lost")
	}
	if _, ok := c.Invalidate(0x999); ok {
		t.Fatal("Invalidate of absent line reported success")
	}
}

func TestDirtyTracking(t *testing.T) {
	c := tiny(t, 64*2, 2, replacement.LRU)
	c.Fill(0x0, 0)
	if !c.SetDirty(0x0) {
		t.Fatal("SetDirty on present line failed")
	}
	if c.SetDirty(0x40) {
		t.Fatal("SetDirty on absent line succeeded")
	}
	c.Fill(0x40, 0)
	c.Touch(0x40) // victim is 0x0 (dirty)
	victim, evicted := c.Fill(0x80, 0)
	if !evicted || !victim.Dirty {
		t.Fatalf("dirty victim not reported: %+v", victim)
	}
	if c.Stats.DirtyEvicts != 1 {
		t.Fatalf("DirtyEvicts = %d", c.Stats.DirtyEvicts)
	}
}

// presenceOf returns addr's presence mask, 0 when the line is absent.
func presenceOf(c *Cache, addr uint64) uint64 {
	set, way, ok := c.Lookup(addr)
	if !ok {
		return 0
	}
	return c.PresenceAt(set, way)
}

func TestPresenceBits(t *testing.T) {
	c := tiny(t, 64*4, 4, replacement.NRU)
	c.Fill(0x0, 1<<2)
	if got := presenceOf(c, 0x0); got != 1<<2 {
		t.Fatalf("Presence = %b, want 100", got)
	}
	set, way, _ := c.Lookup(0x0)
	c.AddPresenceAt(set, way, 0)
	if got := presenceOf(c, 0x0); got != 1<<2|1 {
		t.Fatalf("Presence = %b, want 101", got)
	}
	if !c.ClearPresence(0x0) {
		t.Fatal("ClearPresence failed on present line")
	}
	if got := presenceOf(c, 0x0); got != 0 {
		t.Fatalf("Presence after clear = %b", got)
	}
	if c.ClearPresence(0xF00) {
		t.Fatal("presence ops on absent line reported success")
	}
	if got := presenceOf(c, 0xF00); got != 0 {
		t.Fatalf("Presence of absent line = %b", got)
	}
}

// TestProbeDoesNotPerturbReplacement: Lookup, the read-only probe,
// must not promote the line it finds.
func TestProbeDoesNotPerturbReplacement(t *testing.T) {
	c := tiny(t, 64*2, 2, replacement.LRU)
	c.Fill(0x0, 0)
	c.Fill(0x40, 0) // LRU order: 0x40 MRU, 0x0 LRU
	if _, _, ok := c.Lookup(0x0); !ok {
		t.Fatal("Lookup missed a resident line")
	}
	victim, _ := c.Fill(0x80, 0)
	if victim.Addr != 0x0 {
		t.Fatalf("Lookup perturbed replacement state; victim = %#x", victim.Addr)
	}
}

func TestPeekAndPromote(t *testing.T) {
	c := tiny(t, 64*2, 2, replacement.LRU)
	c.Fill(0x0, 0)
	c.Fill(0x40, 0)
	set := c.SetIndex(0x0)
	if v := c.Line(set, c.VictimWay(set)); v.Addr != 0x0 {
		t.Fatalf("victim line = %#x, want 0x0", v.Addr)
	}
	// Promote the victim (the QBS "line is resident" path); the other
	// line becomes the victim.
	c.PromoteWay(set, c.VictimWay(set))
	if v := c.Line(set, c.VictimWay(set)); v.Addr != 0x40 {
		t.Fatalf("victim line after promote = %#x, want 0x40", v.Addr)
	}
	c.policy.Demote(set, 0)
	if v := c.VictimWay(set); c.Line(set, v).Addr != 0x0 {
		t.Fatalf("Demote did not take effect")
	}
}

// TestWayRankForEveryKind pins the rank each policy reports for
// decision traces: the LRU stack position, 0/1 for a referenced or
// unreferenced NRU way, the SRRIP RRPV, the base policy's rank for DIP
// and DRRIP.
func TestWayRankForEveryKind(t *testing.T) {
	// One set of four ways. Fill ways 0-3 in order, then hit way 1.
	ranks := func(pol replacement.Kind) []uint8 {
		c := tiny(t, 64*4, 4, pol)
		for i := uint64(0); i < 4; i++ {
			c.Fill(i*0x40, 0)
		}
		c.Touch(0x40)
		var got []uint8
		for w := 0; w < 4; w++ {
			got = append(got, c.WayRank(0, w))
		}
		return got
	}
	for _, tc := range []struct {
		pol  replacement.Kind
		want []uint8
	}{
		// MRU first: 1, 3, 2, 0.
		{replacement.LRU, []uint8{3, 0, 2, 1}},
		{replacement.DIP, []uint8{3, 0, 2, 1}}, // set 0 leads for LRU: plain MRU inserts
		// The fourth fill started a new generation keeping only way 3;
		// the hit then referenced way 1.
		{replacement.NRU, []uint8{1, 0, 1, 0}},
		// Fills insert long (RRPV 2); the hit makes way 1 near-immediate.
		{replacement.SRRIP, []uint8{2, 0, 2, 2}},
		{replacement.DRRIP, []uint8{2, 0, 2, 2}}, // set 0 leads for SRRIP
	} {
		if got := ranks(tc.pol); !slices.Equal(got, tc.want) {
			t.Errorf("%v: WayRank = %v, want %v", tc.pol, got, tc.want)
		}
	}
}

func TestForEachValidAndReset(t *testing.T) {
	c := tiny(t, 4096, 4, replacement.LRU)
	for i := 0; i < 10; i++ {
		c.Fill(uint64(i)*64, 0)
	}
	if got := c.CountValid(); got != 10 {
		t.Fatalf("CountValid = %d, want 10", got)
	}
	sum := uint64(0)
	c.ForEachValid(func(l Line) { sum += l.Addr })
	if want := uint64(64 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9)); sum != want {
		t.Fatalf("sum of valid addrs = %d, want %d", sum, want)
	}
	c.Reset()
	if c.CountValid() != 0 || c.Stats.Fills != 0 {
		t.Fatal("Reset did not clear contents and stats")
	}
}

// refCache is a reference model: a map from line address to dirty bit
// plus an exact LRU list per set, capped at assoc lines per set.
type refCache struct {
	lineSize uint64
	numSets  uint64
	assoc    int
	sets     map[uint64][]uint64 // set -> line addrs, MRU first
	dirty    map[uint64]bool
}

func newRefCache(numSets uint64, assoc int) *refCache {
	return &refCache{
		lineSize: 64, numSets: numSets, assoc: assoc,
		sets:  make(map[uint64][]uint64),
		dirty: make(map[uint64]bool),
	}
}

func (r *refCache) set(addr uint64) uint64  { return addr / r.lineSize % r.numSets }
func (r *refCache) line(addr uint64) uint64 { return addr / r.lineSize * r.lineSize }

func (r *refCache) contains(addr uint64) bool {
	la := r.line(addr)
	for _, a := range r.sets[r.set(addr)] {
		if a == la {
			return true
		}
	}
	return false
}

func (r *refCache) touch(addr uint64) {
	la, s := r.line(addr), r.set(addr)
	lst := r.sets[s]
	for i, a := range lst {
		if a == la {
			copy(lst[1:i+1], lst[:i])
			lst[0] = la
			return
		}
	}
}

func (r *refCache) fill(addr uint64) (victim uint64, evicted bool) {
	la, s := r.line(addr), r.set(addr)
	lst := r.sets[s]
	if len(lst) == r.assoc {
		victim, evicted = lst[len(lst)-1], true
		delete(r.dirty, victim)
		lst = lst[:len(lst)-1]
	}
	r.sets[s] = append([]uint64{la}, lst...)
	return victim, evicted
}

func (r *refCache) invalidate(addr uint64) bool {
	la, s := r.line(addr), r.set(addr)
	lst := r.sets[s]
	for i, a := range lst {
		if a == la {
			r.sets[s] = append(lst[:i], lst[i+1:]...)
			delete(r.dirty, la)
			return true
		}
	}
	return false
}

// TestCacheMatchesReferenceModel drives an LRU cache and the map-based
// reference with identical random access streams; containment, victims,
// and dirty bits must agree at every step.
func TestCacheMatchesReferenceModel(t *testing.T) {
	f := func(ops []uint32) bool {
		c := MustNew(Config{Name: "dut", Size: 64 * 4 * 8, Assoc: 4, LineSize: 64, Policy: replacement.LRU})
		ref := newRefCache(8, 4)
		for _, op := range ops {
			addr := uint64(op % 4096)
			switch op % 5 {
			case 0, 1: // access: touch on hit, fill on miss
				if c.Contains(addr) != ref.contains(addr) {
					return false
				}
				if c.Contains(addr) {
					c.Touch(addr)
					ref.touch(addr)
				} else {
					v, ev := c.Fill(addr, 0)
					rv, rev := ref.fill(addr)
					if ev != rev || (ev && v.Addr != rv) {
						return false
					}
				}
			case 2: // store
				got := c.SetDirty(addr)
				want := ref.contains(addr)
				if got != want {
					return false
				}
				if want {
					ref.dirty[ref.line(addr)] = true
					c.Touch(addr)
					ref.touch(addr)
				}
			case 3: // invalidate
				_, got := c.Invalidate(addr)
				if got != ref.invalidate(addr) {
					return false
				}
			case 4: // probe
				if c.Contains(addr) != ref.contains(addr) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestNoDuplicateLines: a line address never occupies two ways at once,
// under any access pattern and policy.
func TestNoDuplicateLines(t *testing.T) {
	for _, pol := range []replacement.Kind{replacement.LRU, replacement.NRU, replacement.SRRIP, replacement.DIP, replacement.DRRIP} {
		pol := pol
		f := func(ops []uint16) bool {
			c := MustNew(Config{Name: "dut", Size: 64 * 4 * 4, Assoc: 4, LineSize: 64, Policy: pol})
			for _, op := range ops {
				addr := uint64(op % 2048)
				if !c.Touch(addr) {
					c.Fill(addr, 0)
				}
				seen := map[uint64]bool{}
				dup := false
				c.ForEachValid(func(l Line) {
					if seen[l.Addr] {
						dup = true
					}
					seen[l.Addr] = true
				})
				if dup {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
}

// TestLookupMatchesFirstMatchScan pins the branch-free Lookup against
// the obvious early-exit scan on random tag rows written straight into
// the tag array: every associativity New accepts (1-64), empty ways,
// misses, full-width tags, and a duplicated tag, where the lowest
// matching way must win.
func TestLookupMatchesFirstMatchScan(t *testing.T) {
	const sets = 4
	rng := rand.New(rand.NewPCG(7, 11))
	for assoc := 1; assoc <= 64; assoc++ {
		c := tiny(t, int64(sets*assoc*64), assoc, replacement.LRU)
		// line returns an address of set s whose tag is drawn from a
		// range twice the associativity (so rows hold repeats and
		// queries miss often) or, one time in eight, from all 56 tag
		// bits.
		line := func(s int) uint64 {
			tag := rng.Uint64N(uint64(2 * assoc))
			if rng.IntN(8) == 0 {
				tag = rng.Uint64() >> 8
			}
			return tag<<8 | uint64(s)<<6
		}
		for trial := 0; trial < 200; trial++ {
			s := rng.IntN(sets)
			row := c.tags[s*assoc : (s+1)*assoc]
			for w := range row {
				row[w] = invalidTag
				if rng.IntN(4) != 0 {
					row[w] = line(s)
				}
			}
			if assoc > 1 && rng.IntN(2) == 0 {
				lo := rng.IntN(assoc - 1)
				row[lo+1+rng.IntN(assoc-lo-1)] = row[lo]
			}
			queries := []uint64{line(s) | rng.Uint64N(64)}
			for w := range row {
				if row[w] != invalidTag {
					queries = append(queries, row[w]|rng.Uint64N(64))
				}
			}
			for _, addr := range queries {
				wantWay, wantOK := 0, false
				for w := range row {
					if row[w] == c.LineAddr(addr) {
						wantWay, wantOK = w, true
						break
					}
				}
				set, way, ok := c.Lookup(addr)
				if set != s || ok != wantOK || (ok && way != wantWay) {
					t.Fatalf("assoc %d row %#x: Lookup(%#x) = (%d, %d, %v), want (%d, %d, %v)",
						assoc, row, addr, set, way, ok, s, wantWay, wantOK)
				}
			}
		}
	}
}
