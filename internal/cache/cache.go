// Package cache implements the set-associative cache structure shared by
// every level of the simulated hierarchy. It is a pure mechanism: tags,
// validity, dirty bits, per-line presence (directory) bits, and pluggable
// replacement state. Policy decisions — inclusion, back-invalidation,
// temporal-locality hints, query based selection — live in
// internal/hierarchy, which drives caches through the low-level
// operations exposed here.
//
// Line state is held struct-of-arrays style in flat backing slices
// indexed set*assoc+way: Lookup scans one contiguous row of line
// addresses, which is the single hottest loop in the simulator. Every
// replacement decision goes through the cache's one replacement.Policy.
package cache

import (
	"fmt"
	"math/bits"

	"tlacache/internal/replacement"
)

// Line is one cache line's bookkeeping state. Addr is the line-aligned
// physical address (we store the full address rather than a tag so that
// victims and back-invalidations can be expressed in terms of addresses
// without reconstructing them from set/tag pairs). Line is the
// copy-out view the cache returns; internally the same state lives in
// flat per-field arrays.
type Line struct {
	Addr     uint64
	Valid    bool
	Dirty    bool
	Presence uint64 // LLC directory: bit c set => core c may hold the line
}

// flags bits for the per-line metadata byte. Validity is not a flag:
// an invalid way holds invalidTag in the tag array (see below), so the
// lookup scan needs only the tag word.
const (
	flagDirty uint8 = 1 << iota
)

// invalidTag marks an empty way directly in the tag array. Real tags
// are line-aligned addresses and the line size is at least two bytes,
// so an odd value can never match a lookup; this lets the hot lookup
// scan compare tags alone instead of also loading and testing a
// validity bit per way.
const invalidTag uint64 = 1

// Config describes a cache's geometry and replacement policy.
type Config struct {
	Name     string // for error messages and stats dumps, e.g. "L1D"
	Size     int64  // total capacity in bytes
	Assoc    int    // ways per set
	LineSize int64  // bytes per line; must match across a hierarchy
	Policy   replacement.Kind
}

// Stats counts the structural events a cache observes. Access-level
// hit/miss accounting lives in the hierarchy, which knows about demand
// vs. prefetch vs. hint traffic; these counters cover what only the
// cache itself can see.
type Stats struct {
	Fills         uint64 // lines allocated
	Evictions     uint64 // valid lines displaced by fills
	DirtyEvicts   uint64 // evictions that required a writeback
	Invalidations uint64 // valid lines removed by Invalidate
}

// Cache is a set-associative cache. It is not safe for concurrent use;
// the simulator is single-goroutine by design (determinism).
type Cache struct {
	numSets int
	assoc   int
	offBits uint
	setMask uint64

	// Struct-of-arrays line state, indexed set*assoc+way. tags holds
	// the line-aligned address of a resident line or invalidTag for an
	// empty way; flags carries a resident line's dirty bit. An empty
	// way's flags and presence may hold a departed line's values:
	// nothing reads them, since validity comes from the tag alone and
	// FillWay overwrites both.
	tags     []uint64
	flags    []uint8
	presence []uint64 // nil until the first non-zero presence write

	policy replacement.Policy

	numLines int

	Stats Stats
}

// New builds a cache from cfg. It returns an error when the geometry is
// inconsistent (sizes not powers of two, capacity not divisible into
// sets, and so on) so that configuration mistakes surface immediately.
func New(cfg Config) (*Cache, error) {
	if cfg.LineSize < 2 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d is not a power of two >= 2", cfg.Name, cfg.LineSize)
	}
	if cfg.Assoc <= 0 || cfg.Assoc > 64 {
		// Lookup gathers a set's tag matches in one 64-bit mask.
		return nil, fmt.Errorf("cache %s: associativity %d out of range [1,64]", cfg.Name, cfg.Assoc)
	}
	if cfg.Size <= 0 || cfg.Size%(cfg.LineSize*int64(cfg.Assoc)) != 0 {
		return nil, fmt.Errorf("cache %s: size %d is not a multiple of assoc %d x line %d",
			cfg.Name, cfg.Size, cfg.Assoc, cfg.LineSize)
	}
	numSets := int(cfg.Size / (cfg.LineSize * int64(cfg.Assoc)))
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache %s: %d sets is not a power of two", cfg.Name, numSets)
	}
	c := &Cache{
		numSets:  numSets,
		assoc:    cfg.Assoc,
		offBits:  uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		setMask:  uint64(numSets - 1),
		numLines: numSets * cfg.Assoc,
	}
	c.tags = make([]uint64, c.numLines)
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	c.flags = make([]uint8, c.numLines)
	// presence is allocated lazily on the first non-zero mask: only the
	// LLC maintains directory bits, so the L1/L2 instances of a
	// hierarchy never pay for the array.
	c.policy = replacement.New(cfg.Policy, numSets, cfg.Assoc)
	return c, nil
}

// MustNew is New for static configurations known to be valid; it panics
// on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("cache: MustNew: %v", err))
	}
	return c
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// LineAddr returns addr rounded down to its line boundary. It is a pure
// mask, so it is well defined for every addr including the top of the
// 64-bit address space.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.offBits << c.offBits }

// SetIndex returns the set addr maps to. Like LineAddr it is pure bit
// arithmetic and total over the full address space.
func (c *Cache) SetIndex(addr uint64) int { return int(addr >> c.offBits & c.setMask) }

// Lookup resolves addr to its home set and, when the line is resident,
// its way. It performs the line-addr/set computation exactly once, so
// the hierarchy can probe a cache a single time per access and then use
// the ...At methods with the returned coordinates. It never modifies
// state.
//
// The set's tag row is compared in one pass with no early exit, and
// the lowest matching way wins. Which way holds a line is data the
// branch predictor cannot learn, so a compare-and-branch per way
// mispredicts on most data hits; this pass costs the same on every
// lookup. Each way's mismatch bit is derived arithmetically: 0-(t^la)
// borrows exactly when t != la, and the borrow enters miss as the carry
// of miss+miss, one SUB and one ADC per way. Scanning from the top way
// down leaves way w's bit at bit w; the bits above the associativity
// keep the ones miss starts with. Empty ways hold invalidTag, which
// never equals a line address, so the tag compare alone decides
// residency.
func (c *Cache) Lookup(addr uint64) (set, way int, ok bool) {
	la := addr >> c.offBits << c.offBits
	set = int(la >> c.offBits & c.setMask)
	tags := c.tags[set*c.assoc : (set+1)*c.assoc]
	miss := ^uint64(0)
	for w := len(tags) - 1; w >= 0; w-- {
		_, ne := bits.Sub64(0, tags[w]^la, 0)
		miss, _ = bits.Add64(miss, miss, ne)
	}
	return set, bits.TrailingZeros64(^miss) & 63, miss != ^uint64(0)
}

// Contains reports whether addr's line is present and valid.
func (c *Cache) Contains(addr uint64) bool {
	_, _, ok := c.Lookup(addr)
	return ok
}

// Touch promotes the line holding addr in the replacement order, as on
// a hit or a temporal-locality hint. It reports whether the line was
// present.
func (c *Cache) Touch(addr uint64) bool {
	set, way, ok := c.Lookup(addr)
	if !ok {
		return false
	}
	c.policy.Touch(set, way)
	return true
}

// Line returns a copy of the line at (set, way).
func (c *Cache) Line(set, way int) Line {
	i := set*c.assoc + way
	if c.tags[i] == invalidTag {
		return Line{}
	}
	return Line{
		Addr:     c.tags[i],
		Valid:    true,
		Dirty:    c.flags[i]&flagDirty != 0,
		Presence: c.presenceAtIndex(i),
	}
}

// presenceAtIndex reads a presence mask, tolerating the lazily
// unallocated state.
func (c *Cache) presenceAtIndex(i int) uint64 {
	if c.presence == nil {
		return 0
	}
	return c.presence[i]
}

// ensurePresence allocates the presence array on first use.
func (c *Cache) ensurePresence() {
	if c.presence == nil {
		c.presence = make([]uint64, c.numLines)
	}
}

// SetDirty marks addr's line dirty (a store hit). It reports whether the
// line was present.
func (c *Cache) SetDirty(addr uint64) bool {
	set, way, ok := c.Lookup(addr)
	if !ok {
		return false
	}
	c.flags[set*c.assoc+way] |= flagDirty
	return true
}

// SetDirtyAt marks the line at (set, way) dirty. The coordinates must
// come from a successful Lookup.
func (c *Cache) SetDirtyAt(set, way int) { c.flags[set*c.assoc+way] |= flagDirty }

// VictimWay returns the way that would be evicted next from set:
// an invalid way when one exists (lowest index first), otherwise the
// replacement policy's choice. It does not modify any state.
func (c *Cache) VictimWay(set int) int {
	base := set * c.assoc
	tags := c.tags[base : base+c.assoc]
	for w := range tags {
		if tags[w] == invalidTag {
			return w
		}
	}
	return c.policy.Victim(set)
}

// WayRank returns the replacement policy's eviction-preference rank for
// (set, way) — 0 most protected, larger closer to eviction (see
// replacement.Policy.WayRank). Read-only;
// used by decision tracing to snapshot candidate state.
func (c *Cache) WayRank(set, way int) uint8 { return c.policy.WayRank(set, way) }

// PromoteWay moves (set, way) to the most-protected replacement
// position. Used by QBS when a query finds the candidate resident in a
// core cache, and by hit handling when the line's set/way is already
// known from Lookup.
func (c *Cache) PromoteWay(set, way int) { c.policy.Touch(set, way) }

// Fill allocates addr's line into the cache, evicting the current
// victim if the set is full. It returns the displaced line (evicted
// reports whether it was valid). The new line is inserted clean with
// the given presence mask; callers mark it dirty separately when the
// triggering access is a store.
func (c *Cache) Fill(addr uint64, presence uint64) (victim Line, evicted bool) {
	set := c.SetIndex(addr)
	way := c.VictimWay(set)
	return c.FillWay(set, way, addr, presence)
}

// FillWay allocates addr's line into a specific way of set, returning
// the displaced line. The hierarchy uses this when victim selection has
// already been performed (e.g. after a QBS query chain).
func (c *Cache) FillWay(set, way int, addr uint64, presence uint64) (victim Line, evicted bool) {
	i := set*c.assoc + way
	if c.tags[i] != invalidTag {
		evicted = true
		victim = Line{Addr: c.tags[i], Valid: true, Dirty: c.flags[i]&flagDirty != 0, Presence: c.presenceAtIndex(i)}
		c.Stats.Evictions++
		if victim.Dirty {
			c.Stats.DirtyEvicts++
		}
	}
	c.tags[i] = addr >> c.offBits << c.offBits
	c.flags[i] = 0
	if c.presence != nil {
		c.presence[i] = presence
	} else if presence != 0 {
		c.ensurePresence()
		c.presence[i] = presence
	}
	c.policy.Insert(set, way)
	c.Stats.Fills++
	return victim, evicted
}

// Invalidate removes addr's line if present and returns a copy of it.
// Replacement state for the way is demoted so the hole is reused first.
func (c *Cache) Invalidate(addr uint64) (line Line, ok bool) {
	set, way, found := c.Lookup(addr)
	if !found {
		return Line{}, false
	}
	return c.InvalidateAt(set, way), true
}

// InvalidateAt removes the valid line at (set, way) — coordinates from
// a successful Lookup — and returns a copy of it.
func (c *Cache) InvalidateAt(set, way int) Line {
	i := set*c.assoc + way
	line := Line{Addr: c.tags[i], Valid: true, Dirty: c.flags[i]&flagDirty != 0, Presence: c.presenceAtIndex(i)}
	c.tags[i] = invalidTag
	c.policy.Demote(set, way)
	c.Stats.Invalidations++
	return line
}

// PresenceAt returns the presence mask of the line at (set, way).
func (c *Cache) PresenceAt(set, way int) uint64 { return c.presenceAtIndex(set*c.assoc + way) }

// AddPresenceAt ORs bit core into the presence mask at (set, way).
func (c *Cache) AddPresenceAt(set, way, core int) {
	c.ensurePresence()
	c.presence[set*c.assoc+way] |= 1 << uint(core)
}

// ClearPresence zeroes addr's presence mask (used by ECI after early
// invalidating a line from the core caches while retaining it in the
// LLC). It reports whether the line was present.
func (c *Cache) ClearPresence(addr uint64) bool {
	set, way, ok := c.Lookup(addr)
	if !ok {
		return false
	}
	if c.presence != nil {
		c.presence[set*c.assoc+way] = 0
	}
	return true
}

// ForEachValid calls fn for every valid line. Iteration order is
// set-major, way-minor and deterministic.
func (c *Cache) ForEachValid(fn func(Line)) {
	for i := 0; i < c.numLines; i++ {
		if c.tags[i] != invalidTag {
			fn(Line{Addr: c.tags[i], Valid: true, Dirty: c.flags[i]&flagDirty != 0, Presence: c.presenceAtIndex(i)})
		}
	}
}

// CountValid returns the number of valid lines.
func (c *Cache) CountValid() int {
	n := 0
	for _, t := range c.tags {
		if t != invalidTag {
			n++
		}
	}
	return n
}

// Reset invalidates every line and zeroes statistics, preserving the
// geometry and replacement policy kind.
func (c *Cache) Reset() {
	for i := range c.flags {
		c.tags[i], c.flags[i] = invalidTag, 0
	}
	for i := range c.presence {
		c.presence[i] = 0
	}
	c.policy.ResetState()
	c.Stats = Stats{}
}
