package hierarchy

// A reference hierarchy, written the obvious way, that runs in lockstep
// with Hierarchy.
//
// What it runs. lockstepConfigs lists 57 machines: every inclusion
// mode and TLA variant, SRRIP, DIP and DRRIP LLCs under no TLA policy,
// QBS and ECI, and banked LLCs, with 1, 2 and 4 cores. TestLockstep
// runs each on a random, a fetch-locality and a looping stream, and
// FuzzHierarchyAccess on its fuzzer's stream.
//
// What it models. Every cache is a slice of sets, each a slice of
// {addr, dirty, presence} ways; a lookup scans the set. A fill takes the
// lowest empty way first. Replacement follows each policy's definition:
//
//   - LRU keeps a timestamp per way and evicts the oldest.
//   - NRU keeps a reference bit per way, evicts the lowest way whose bit
//     is clear, and clears every other bit when the last one would be
//     set.
//   - SRRIP keeps a 2-bit RRPV per way: a fresh way is at 3, a fill goes
//     to 2, a hit to 0 and a demotion to 3. The victim is the lowest way
//     at 3, after ageing the whole set until one way reaches 3.
//   - DIP and DRRIP duel LRU and SRRIP against their bimodal fills,
//     which go to the LRU position and to RRPV 3. PSEL runs over
//     [0, 1024] from 512; a fill in a set with set%32 == 0 counts it up,
//     one with set%32 == 1 down, and followers fill bimodally while it
//     is above 512. Every 32nd bimodal fill takes the base position.
//
// A banked LLC keeps a next-free cycle per bank, the LLC set modulo the
// bank count; an LLC access waits for its bank, then holds it for
// BankOccupancy cycles. There are no struct-of-arrays tags, packed
// recency stacks, packed reference bits or memos, and only
// prefetch.Streamer is shared with the simulator. The reference covers
// the three inclusion modes; TLH with its source caches and per-mille
// sampling; ECI; QBS with its probe set, query limit, the modified
// variant and the fixed point where promoting the candidate leaves the
// same victim; an inclusive L2 with and without QBS at the L2;
// broadcast invalidation; the victim cache; and the stream prefetcher.
//
// The L2-victim rule of each inclusion mode, for a line evicted from a
// private L2:
//
//   - Inclusive: a clean victim is dropped. A dirty one updates the LLC
//     copy, which inclusion guarantees is there.
//   - NonInclusive: a clean victim is dropped, so the LLC is never
//     refilled with clean lines; copying them back is the trade-off
//     arXiv:2105.14442 studies. A dirty victim updates the LLC copy
//     when there is one and is written to memory when there is not.
//   - Exclusive: every victim, clean or dirty, is inserted into the LLC,
//     which is how an exclusive LLC fills. A line another core's L2
//     still holds is not inserted, its dirty data going to memory.
//
// What the lockstep compares. Every access carries a clock that
// advances a cycle per access. After every access: the Result, the
// whole Traffic and every core's CoreStats, a difference named field by
// field through statecheck.Diff. Every checkEvery accesses, and at the
// end of a stream: every way of every cache (line, dirty bit, presence
// mask and replacement rank), the victim cache's entries in order and
// the prefetchers' state. A line in the wrong cache, set or way, a
// duplicated tag, a missing presence bit or a broken inclusion or
// exclusion property all show up there as a way that differs from the
// reference; there are no hand-written invariant checks.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"tlacache/internal/cache"
	"tlacache/internal/prefetch"
	"tlacache/internal/replacement"
	"tlacache/internal/statecheck"
	"tlacache/internal/telemetry"
)

// refLine is one way of a reference cache.
type refLine struct {
	addr     uint64
	valid    bool
	dirty    bool
	presence uint64 // LLC directory: bit c set means core c may hold the line
	used     int64  // LRU and DIP: when the way was last referenced; smaller is older
	ref      bool   // NRU: the reference bit
	rrpv     uint8  // SRRIP and DRRIP: the re-reference prediction value, 0 to 3
}

// Set dueling, as DIP and DRRIP define it.
const (
	duelPeriod  = 32   // set%32 == 0 leads for the base policy, 1 for the bimodal one
	pselMax     = 1024 // PSEL runs over [0, pselMax]
	bimodalBase = 32   // every 32nd bimodal fill takes the base position
)

// refCache is a set-associative cache kept as a slice of sets of ways.
type refCache struct {
	name     string
	lineSize uint64
	kind     replacement.Kind
	sets     [][]refLine
	clock    int64

	// Set dueling (DIP and DRRIP). The counts are the reference's own:
	// they show which positions the follower sets filled at and whether
	// PSEL ever sat at a bound.
	psel          int       // above pselMax/2 the followers fill bimodally
	bimodalFills  uint64    // bimodal fills so far, leaders' and followers'
	followerFills [2]uint64 // follower fills under the base and the bimodal policy
	pselHeld      [2]bool   // a leader fill found PSEL at 0, at pselMax
}

func newRefCache(name string, size int64, assoc int, lineSize int64, kind replacement.Kind) *refCache {
	c := &refCache{name: name, lineSize: uint64(lineSize), kind: kind, psel: pselMax / 2}
	c.sets = make([][]refLine, size/(lineSize*int64(assoc)))
	for s := range c.sets {
		c.sets[s] = make([]refLine, assoc)
		for w := range c.sets[s] {
			// A fresh LRU set ranks its ways by index, way 0 the newest;
			// a fresh RRIP way is distant.
			c.sets[s][w].used = -int64(w)
			c.sets[s][w].rrpv = 3
		}
	}
	return c
}

func (c *refCache) lineOf(addr uint64) uint64 { return addr - addr%c.lineSize }

func (c *refCache) setOf(addr uint64) int { return int(addr / c.lineSize % uint64(len(c.sets))) }

// find returns the set addr maps to and the way holding its line.
func (c *refCache) find(addr uint64) (set, way int, ok bool) {
	set = c.setOf(addr)
	for w, l := range c.sets[set] {
		if l.valid && l.addr == c.lineOf(addr) {
			return set, w, true
		}
	}
	return set, 0, false
}

func (c *refCache) has(addr uint64) bool {
	_, _, ok := c.find(addr)
	return ok
}

// byRecency reports whether the cache orders its ways by last use (LRU
// and DIP); otherwise it keeps NRU bits (NRU) or RRPVs (SRRIP, DRRIP).
func (c *refCache) byRecency() bool { return c.kind == replacement.LRU || c.kind == replacement.DIP }

// reference records a hit on, or a promotion of, (set, way).
func (c *refCache) reference(set, way int) {
	ways := c.sets[set]
	switch {
	case c.byRecency():
		c.clock++
		ways[way].used = c.clock
	case c.kind == replacement.NRU:
		ways[way].ref = true
		for _, l := range ways {
			if !l.ref {
				return
			}
		}
		for w := range ways {
			ways[w].ref = w == way
		}
	default:
		ways[way].rrpv = 0
	}
}

// filled records a fill of (set, way). LRU and NRU treat it as a hit,
// SRRIP predicts a long re-reference (RRPV 2), and DIP and DRRIP fill
// at their base policy's position or at the bimodal one: the LRU
// position (DIP) or RRPV 3 (DRRIP).
func (c *refCache) filled(set, way int) {
	switch c.kind {
	case replacement.LRU, replacement.NRU:
		c.reference(set, way)
	case replacement.SRRIP:
		c.sets[set][way].rrpv = 2
	case replacement.DIP:
		if c.duelBase(set) {
			c.reference(set, way)
		} else {
			c.demote(set, way)
		}
	case replacement.DRRIP:
		c.sets[set][way].rrpv = 3
		if c.duelBase(set) {
			c.sets[set][way].rrpv = 2
		}
	}
}

// duelBase reports whether a fill of set takes the base policy's
// position. A fill follows a miss, so a leader's fill is a vote against
// its own policy: PSEL counts up for a base leader and down for a
// bimodal one, held within [0, pselMax]. Followers fill bimodally while
// PSEL is above its midpoint.
func (c *refCache) duelBase(set int) bool {
	switch set % duelPeriod {
	case 0:
		if c.psel == pselMax {
			c.pselHeld[1] = true
		} else {
			c.psel++
		}
		return true
	case 1:
		if c.psel == 0 {
			c.pselHeld[0] = true
		} else {
			c.psel--
		}
	default:
		if c.psel <= pselMax/2 {
			c.followerFills[0]++
			return true
		}
		c.followerFills[1]++
	}
	c.bimodalFills++
	return c.bimodalFills%bimodalBase == 0
}

// demote makes (set, way) the next victim of its set.
func (c *refCache) demote(set, way int) {
	ways := c.sets[set]
	switch {
	case c.byRecency():
		oldest := ways[way].used
		for _, l := range ways {
			oldest = min(oldest, l.used)
		}
		ways[way].used = oldest - 1
	case c.kind == replacement.NRU:
		ways[way].ref = false
	default:
		ways[way].rrpv = 3
	}
}

// victim returns the way a fill of set takes: the lowest empty way,
// else the oldest way (LRU, DIP), the lowest way not referenced (NRU),
// or the lowest way at RRPV 3 once the whole set has aged until one
// way is (SRRIP, DRRIP).
func (c *refCache) victim(set int) int {
	ways := c.sets[set]
	for w, l := range ways {
		if !l.valid {
			return w
		}
	}
	switch {
	case c.byRecency():
		v := 0
		for w, l := range ways {
			if l.used < ways[v].used {
				v = w
			}
		}
		return v
	case c.kind == replacement.NRU:
		for w, l := range ways {
			if !l.ref {
				return w
			}
		}
		return 0 // a one-way set keeps its only bit set
	}
	for {
		for w, l := range ways {
			if l.rrpv == 3 {
				return w
			}
		}
		for w := range ways {
			ways[w].rrpv++
		}
	}
}

// rank is (set, way)'s place in the eviction order as
// replacement.Policy.WayRank reports it: the number of newer ways (LRU,
// DIP), 1 for an NRU way whose bit is clear and 0 otherwise, or the
// RRPV (SRRIP, DRRIP).
func (c *refCache) rank(set, way int) uint8 {
	ways := c.sets[set]
	switch {
	case c.byRecency():
		r := 0
		for _, l := range ways {
			if l.used > ways[way].used {
				r++
			}
		}
		return uint8(r)
	case c.kind == replacement.NRU:
		if ways[way].ref {
			return 0
		}
		return 1
	}
	return ways[way].rrpv
}

// touch references addr's line, reporting whether the cache holds it.
func (c *refCache) touch(addr uint64) bool {
	set, way, ok := c.find(addr)
	if ok {
		c.reference(set, way)
	}
	return ok
}

// fill puts addr's line, clean, with the given presence mask into
// (set, way) and returns the line it replaced.
func (c *refCache) fill(set, way int, addr, presence uint64) refLine {
	old := c.sets[set][way]
	c.sets[set][way] = refLine{addr: c.lineOf(addr), valid: true, presence: presence, used: old.used, ref: old.ref, rrpv: old.rrpv}
	c.filled(set, way)
	return old
}

// insert fills addr's line into the victim way of its set.
func (c *refCache) insert(addr, presence uint64) refLine {
	set := c.setOf(addr)
	return c.fill(set, c.victim(set), addr, presence)
}

// remove empties the way holding addr's line, making it the next
// victim, and returns the line.
func (c *refCache) remove(addr uint64) (refLine, bool) {
	set, way, ok := c.find(addr)
	if !ok {
		return refLine{}, false
	}
	old := c.sets[set][way]
	c.sets[set][way] = refLine{used: old.used, ref: old.ref, rrpv: old.rrpv}
	c.demote(set, way)
	return old, true
}

func (c *refCache) setDirty(addr uint64) bool {
	set, way, ok := c.find(addr)
	if ok {
		c.sets[set][way].dirty = true
	}
	return ok
}

func (c *refCache) addPresence(addr uint64, core int) {
	if set, way, ok := c.find(addr); ok {
		c.sets[set][way].presence |= 1 << core
	}
}

func (c *refCache) clearPresence(addr uint64) {
	if set, way, ok := c.find(addr); ok {
		c.sets[set][way].presence = 0
	}
}

// refVictim is one victim-cache entry.
type refVictim struct {
	addr  uint64
	dirty bool
}

// refHierarchy is the reference for Hierarchy.
type refHierarchy struct {
	cfg          Config
	l1i, l1d, l2 []*refCache
	llc          *refCache
	pf           []*prefetch.Streamer // nil without prefetching
	victims      []refVictim          // the victim cache, newest first
	hints        uint64               // TLH sampling counter
	bankFree     []uint64             // per LLC bank: the cycle it is next free
	cores        []CoreStats
	traffic      Traffic
}

func newRefHierarchy(cfg Config) *refHierarchy {
	o := &refHierarchy{cfg: cfg, cores: make([]CoreStats, cfg.Cores)}
	mk := func(name string, size int64, assoc int, kind replacement.Kind) *refCache {
		return newRefCache(name, size, assoc, cfg.LineSize, kind)
	}
	for c := range cfg.Cores {
		o.l1i = append(o.l1i, mk(fmt.Sprintf("L1I[%d]", c), cfg.L1ISize, cfg.L1IAssoc, cfg.L1Policy))
		o.l1d = append(o.l1d, mk(fmt.Sprintf("L1D[%d]", c), cfg.L1DSize, cfg.L1DAssoc, cfg.L1Policy))
		o.l2 = append(o.l2, mk(fmt.Sprintf("L2[%d]", c), cfg.L2Size, cfg.L2Assoc, cfg.L2Policy))
		if cfg.EnablePrefetch {
			pfc := cfg.PrefetchConfig
			if pfc.LineSize == 0 {
				pfc.LineSize = cfg.LineSize
			}
			o.pf = append(o.pf, prefetch.MustNew(pfc))
		}
	}
	o.llc = mk("LLC", cfg.LLCSize, cfg.LLCAssoc, cfg.LLCPolicy)
	o.bankFree = make([]uint64, cfg.LLCBanks)
	return o
}

// access performs one demand access at cycle now, as Hierarchy.AccessAt
// does.
func (o *refHierarchy) access(core int, kind AccessKind, addr, now uint64) Result {
	la := o.llc.lineOf(addr)
	st := &o.cores[core]
	l1, l1st, src := o.l1d[core], &st.L1D, DL1
	if kind == IFetch {
		l1, l1st, src = o.l1i[core], &st.L1I, IL1
	}
	l1st.Accesses++
	if l1.touch(la) {
		if kind == Store {
			l1.setDirty(la)
		}
		o.hint(src, la)
		return Result{LevelL1, o.cfg.Latency.L1}
	}
	l1st.Misses++
	st.L2.Accesses++
	res := Result{LevelL2, o.cfg.Latency.L2}
	l2hit := o.l2[core].touch(la)
	if l2hit {
		o.hint(L2C, la)
	} else {
		st.L2.Misses++
		wait := o.bankWait(la, now)
		res = o.fromLLC(core, la)
		res.Latency += wait
	}
	if v := l1.insert(la, 0); v.valid && v.dirty {
		o.writebackToL2(core, v.addr)
	}
	if kind == Store {
		l1.setDirty(la)
	}
	// The stream prefetcher trains on L2 misses, after the demand fill.
	if !l2hit && o.pf != nil {
		lines := o.pf[core].OnMiss(la, nil)
		o.traffic.PrefetchIssued += uint64(len(lines))
		for _, pa := range lines {
			o.prefetch(core, pa)
		}
	}
	return res
}

// bankWait returns how long an LLC access at cycle now waits for its
// bank, the line's LLC set modulo the bank count, and holds that bank
// for BankOccupancy cycles (2 when unset) from when the wait ends.
func (o *refHierarchy) bankWait(la, now uint64) uint64 {
	if len(o.bankFree) == 0 {
		return 0
	}
	b := o.llc.setOf(la) % len(o.bankFree)
	start := max(now, o.bankFree[b])
	occupancy := o.cfg.BankOccupancy
	if occupancy == 0 {
		occupancy = 2
	}
	o.bankFree[b] = start + occupancy
	o.traffic.BankConflictCycles += start - now
	return start - now
}

// hint delivers a TLH hint for a hit in src when TLH is on and src is
// a source, sampling TLHPerMille of the source hits by counter.
func (o *refHierarchy) hint(src CacheSet, la uint64) {
	if o.cfg.TLA != TLATLH || o.cfg.TLHSources&src == 0 {
		return
	}
	if o.cfg.TLHPerMille < 1000 {
		o.hints++
		if o.hints%1000 >= uint64(o.cfg.TLHPerMille) {
			return
		}
	}
	o.traffic.TLHSent++
	o.llc.touch(la)
}

// fromLLC serves an L2 miss from the LLC, the victim cache or memory,
// leaving the line in core's L2.
func (o *refHierarchy) fromLLC(core int, la uint64) Result {
	st := &o.cores[core]
	st.LLC.Accesses++
	exclusive := o.cfg.Inclusion == Exclusive
	if exclusive {
		// An exclusive LLC hands its copy up and forgets it.
		if moved, ok := o.llc.remove(la); ok {
			o.allocL2(core, la)
			if moved.dirty {
				o.l2[core].setDirty(la)
			}
			return Result{LevelLLC, o.cfg.Latency.LLC}
		}
	} else if o.llc.touch(la) {
		o.llc.addPresence(la, core)
		o.allocL2(core, la)
		return Result{LevelLLC, o.cfg.Latency.LLC}
	}
	st.LLC.Misses++
	// Only an inclusive LLC's miss proves no other core holds the line.
	if o.cfg.Inclusion != Inclusive && o.cfg.Cores > 1 {
		o.traffic.CoherenceSnoops += uint64(o.cfg.Cores - 1)
	}
	res, dirty := Result{LevelMemory, o.cfg.Latency.Memory}, false
	if v, ok := o.takeVictim(la); ok {
		o.traffic.VictimCacheHits++
		res, dirty = Result{LevelVictimCache, o.cfg.Latency.LLC + 2}, v.dirty
	} else {
		o.traffic.MemoryReads++
	}
	if exclusive {
		o.allocL2(core, la)
		if dirty {
			o.l2[core].setDirty(la)
		}
	} else {
		o.fillLLC(core, la, dirty)
		o.allocL2(core, la)
	}
	return res
}

// writebackToL2 writes a dirty L1 victim into core's L2, allocating it
// there when the L2 has already dropped the line.
func (o *refHierarchy) writebackToL2(core int, addr uint64) {
	if o.l2[core].setDirty(addr) {
		return
	}
	// An exclusive LLC may hold the copy the L2 gave up; the L1's data
	// is newer, so that copy is dropped.
	if o.cfg.Inclusion == Exclusive {
		o.llc.remove(addr)
	}
	o.allocL2(core, addr)
	o.l2[core].setDirty(addr)
}

// allocL2 fills la, clean, into core's L2 and disposes of the line it
// displaces.
func (o *refHierarchy) allocL2(core int, la uint64) {
	l2 := o.l2[core]
	set := l2.setOf(la)
	way := l2.victim(set)
	if o.cfg.L2QBS {
		// Query based selection at the L2: a candidate an L1 holds is
		// promoted and the next candidate tried, at most L2Assoc times.
		for range o.cfg.L2Assoc {
			cand := l2.sets[set][way]
			if !cand.valid {
				break
			}
			o.traffic.L2QBSQueries++
			if !o.l1i[core].has(cand.addr) && !o.l1d[core].has(cand.addr) {
				break
			}
			o.traffic.L2QBSSaves++
			l2.reference(set, way)
			next := l2.victim(set)
			if next == way {
				break
			}
			way = next
		}
	}
	victim := l2.sets[set][way]
	if victim.valid && o.cfg.L2Inclusive {
		// An inclusive L2 takes the line out of its L1s, merging their
		// dirty data into the departing copy.
		o.traffic.L2BackInvalidates++
		lost := false
		for _, l1 := range []*refCache{o.l1i[core], o.l1d[core]} {
			if l, ok := l1.remove(victim.addr); ok {
				lost = true
				victim.dirty = victim.dirty || l.dirty
			}
		}
		if lost {
			o.cores[core].L2InclusionVictims++
		}
	}
	l2.fill(set, way, la, 0)
	if victim.valid {
		o.l2Victim(victim)
	}
}

// l2Victim applies the inclusion mode's L2-victim rule (see the top of
// this file).
func (o *refHierarchy) l2Victim(v refLine) {
	switch o.cfg.Inclusion {
	case Inclusive, NonInclusive:
		if v.dirty && !o.llc.setDirty(v.addr) {
			o.traffic.WritebacksToMem++
		}
	case Exclusive:
		switch {
		case o.inAnyL2(v.addr):
			if v.dirty {
				o.traffic.WritebacksToMem++
			}
		default:
			set := o.llc.setOf(v.addr)
			way := o.llc.victim(set)
			if old := o.llc.sets[set][way]; old.valid {
				o.retire(old)
			}
			o.llc.fill(set, way, v.addr, 0)
			if v.dirty {
				o.llc.setDirty(v.addr)
			}
		}
	}
}

func (o *refHierarchy) inAnyL2(addr uint64) bool {
	for _, l2 := range o.l2 {
		if l2.has(addr) {
			return true
		}
	}
	return false
}

// fillLLC allocates la in the LLC on a miss, with core's presence bit:
// victim choice (QBS when on), the victim's retirement, the fill, and
// ECI's early invalidation of the next victim.
func (o *refHierarchy) fillLLC(core int, la uint64, dirty bool) {
	set := o.llc.setOf(la)
	way := o.chooseLLCVictim(set)
	if old := o.llc.sets[set][way]; old.valid {
		o.retire(old)
	}
	o.llc.fill(set, way, la, 1<<core)
	if dirty {
		o.llc.setDirty(la)
	}
	if o.cfg.TLA != TLAECI {
		return
	}
	// ECI: the next victim leaves the core caches now but stays in the
	// LLC, unless it is the line just filled or no core may hold it.
	next := o.llc.sets[set][o.llc.victim(set)]
	cores := o.directory(next.presence)
	if !next.valid || next.addr == la || cores == 0 {
		return
	}
	o.traffic.ECISent++
	o.traffic.ECIInvalidated += o.pullFromCores(next.addr, cores)
	o.llc.clearPresence(next.addr)
}

// chooseLLCVictim returns the way an LLC fill of set takes. Under QBS,
// a candidate that a probed cache of a core its directory names still
// holds is promoted instead and the next candidate queried, up to the
// query limit; a candidate no core may hold costs no query.
func (o *refHierarchy) chooseLLCVictim(set int) int {
	way := o.llc.victim(set)
	if o.cfg.TLA != TLAQBS {
		return way
	}
	limit := o.cfg.QBSMaxQueries
	if limit == 0 {
		limit = o.cfg.LLCAssoc
	}
	for range limit {
		cand := o.llc.sets[set][way]
		cores := o.directory(cand.presence)
		if !cand.valid || cores == 0 {
			break
		}
		o.traffic.QBSQueries++
		if !o.heldBy(cand.addr, cores, o.cfg.QBSProbe) {
			break
		}
		o.traffic.QBSSaves++
		o.llc.reference(set, way)
		if o.cfg.QBSEvictSaved {
			// Modified QBS also takes the saved line out of the core
			// caches. It invalidates the cores the directory names even
			// under broadcast invalidation, as Hierarchy does; with an
			// inclusive LLC the directory names every holder, so only a
			// non-inclusive LLC sees a difference.
			o.pullFromCores(cand.addr, cand.presence)
			o.llc.clearPresence(cand.addr)
		}
		next := o.llc.victim(set)
		if next == way {
			break
		}
		way = next
	}
	return way
}

// retire disposes of a valid line leaving the LLC. An inclusive LLC
// first takes it out of the cores its directory names; then the victim
// cache takes it when there is one, and otherwise dirty data goes to
// memory.
func (o *refHierarchy) retire(v refLine) {
	dirty := v.dirty
	if o.cfg.Inclusion == Inclusive {
		for c := range o.cfg.Cores {
			if o.directory(v.presence)>>c&1 == 0 {
				continue
			}
			o.traffic.BackInvalidates++
			held, d := o.strip(c, v.addr)
			if held {
				o.cores[c].InclusionVictims++
			}
			dirty = dirty || d
		}
	}
	if o.cfg.VictimCacheEntries > 0 {
		o.traffic.VictimCacheFills++
		if out, full := o.putVictim(v.addr, dirty); full && out.dirty {
			o.traffic.WritebacksToMem++
		}
		return
	}
	if dirty {
		o.traffic.WritebacksToMem++
	}
}

// pullFromCores takes addr out of the caches of the cores in mask,
// merging dirty copies into the LLC line, which stays. It returns how
// many cores held a copy.
func (o *refHierarchy) pullFromCores(addr, mask uint64) uint64 {
	var n uint64
	for c := range o.cfg.Cores {
		if mask>>c&1 == 0 {
			continue
		}
		held, dirty := o.strip(c, addr)
		if dirty {
			o.llc.setDirty(addr)
		}
		if held {
			n++
		}
	}
	return n
}

// strip removes addr from core c's L1I, L1D and L2, reporting whether
// any of them held it and whether a removed copy was dirty.
func (o *refHierarchy) strip(c int, addr uint64) (held, dirty bool) {
	for _, cc := range []*refCache{o.l1i[c], o.l1d[c], o.l2[c]} {
		if l, ok := cc.remove(addr); ok {
			held = true
			dirty = dirty || l.dirty
		}
	}
	return held, dirty
}

// directory is the set of cores a message about a line with the given
// presence mask goes to: every core under broadcast invalidation.
func (o *refHierarchy) directory(presence uint64) uint64 {
	if o.cfg.BroadcastInvalidate {
		return 1<<o.cfg.Cores - 1
	}
	return presence
}

// heldBy reports whether a cache in probe of a core in mask holds addr.
func (o *refHierarchy) heldBy(addr, mask uint64, probe CacheSet) bool {
	for c := range o.cfg.Cores {
		if mask>>c&1 == 1 && (probe&IL1 != 0 && o.l1i[c].has(addr) ||
			probe&DL1 != 0 && o.l1d[c].has(addr) ||
			probe&L2C != 0 && o.l2[c].has(addr)) {
			return true
		}
	}
	return false
}

// prefetch installs a prefetched line into core's L2, through the LLC
// outside the exclusive mode. Only Traffic counts it.
func (o *refHierarchy) prefetch(core int, pa uint64) {
	la := o.llc.lineOf(pa)
	if o.l2[core].has(la) {
		return
	}
	o.traffic.PrefetchFills++
	switch o.cfg.Inclusion {
	case Exclusive:
		moved, hit := o.llc.remove(la)
		if !hit {
			o.traffic.MemoryReads++
		}
		o.allocL2(core, la)
		if moved.dirty {
			o.l2[core].setDirty(la)
		}
	case Inclusive, NonInclusive:
		if o.llc.touch(la) {
			o.llc.addPresence(la, core)
		} else {
			o.traffic.MemoryReads++
			o.fillLLC(core, la, false)
		}
		o.allocL2(core, la)
	}
}

// putVictim puts an LLC victim at the front of the victim cache and
// returns the oldest entry when a full cache pushed it out. A line
// already there moves to the front, keeping either copy's dirt.
func (o *refHierarchy) putVictim(addr uint64, dirty bool) (out refVictim, full bool) {
	if i := slices.IndexFunc(o.victims, func(v refVictim) bool { return v.addr == addr }); i >= 0 {
		dirty = dirty || o.victims[i].dirty
		o.victims = slices.Delete(o.victims, i, i+1)
	} else if len(o.victims) == o.cfg.VictimCacheEntries {
		out, full = o.victims[len(o.victims)-1], true
		o.victims = o.victims[:len(o.victims)-1]
	}
	o.victims = slices.Insert(o.victims, 0, refVictim{addr, dirty})
	return out, full
}

// takeVictim removes addr's entry from the victim cache.
func (o *refHierarchy) takeVictim(addr uint64) (refVictim, bool) {
	i := slices.IndexFunc(o.victims, func(v refVictim) bool { return v.addr == addr })
	if i < 0 {
		return refVictim{}, false
	}
	v := o.victims[i]
	o.victims = slices.Delete(o.victims, i, i+1)
	return v, true
}

// lockstep drives a Hierarchy and its reference with the same accesses
// and reports the first difference.
type lockstep struct {
	h   *Hierarchy
	o   *refHierarchy
	n   int    // accesses driven so far
	now uint64 // the clock: a cycle per access, as bareMachine keeps it
}

// checkEvery is how many accesses pass between two full state checks.
const checkEvery = 128

// newLockstep builds both hierarchies for cfg. The hierarchy gets a
// telemetry recorder, and, when decisions is set, a decision tracer,
// so the lockstep also shows that observing a run does not change it.
func newLockstep(t testing.TB, cfg Config, decisions bool) *lockstep {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(0)
	if decisions {
		rec.Decisions = discardDecisions{}
	}
	h.SetTelemetry(rec)
	return &lockstep{h: h, o: newRefHierarchy(cfg)}
}

// access makes one demand access on both sides and compares them.
func (ls *lockstep) access(core int, kind AccessKind, addr uint64) error {
	ls.now++
	return ls.compare(core, kind, addr, ls.h.AccessAt(core, kind, addr, ls.now))
}

// step makes one demand access on both sides, fails t if they
// disagree, and returns the hierarchy's Result, so a scenario test has
// the reference check every access it makes.
func (ls *lockstep) step(t testing.TB, core int, kind AccessKind, addr uint64) Result {
	t.Helper()
	ls.now++
	got := ls.h.AccessAt(core, kind, addr, ls.now)
	if err := ls.compare(core, kind, addr, got); err != nil {
		t.Fatal(err)
	}
	return got
}

// mustAgree compares the full state of both sides and fails t on a
// difference.
func (ls *lockstep) mustAgree(t testing.TB) {
	t.Helper()
	if err := ls.check(); err != nil {
		t.Fatal(err)
	}
}

// fetch makes an instruction fetch the way the simulator's run loop
// does: the ifetch memo first, the full access only when it misses.
// The reference has no memo, so a memo that answers for a line the
// L1I no longer holds shows up as a different Result.
func (ls *lockstep) fetch(core int, pc uint64) error {
	ls.now++
	got := Result{LevelL1, ls.h.cfg.Latency.L1}
	if !ls.h.IFetchMemoHit(core, pc) {
		got = ls.h.AccessAt(core, IFetch, pc, ls.now)
	}
	return ls.compare(core, IFetch, pc, got)
}

func (ls *lockstep) compare(core int, kind AccessKind, addr uint64, got Result) error {
	want := ls.o.access(core, kind, addr, ls.now)
	ls.n++
	err := ls.checkCounters()
	if got != want {
		err = fmt.Errorf("Result: got %+v, want %+v", got, want)
	}
	if err != nil {
		return fmt.Errorf("access %d (core %d, kind %d, addr %#x): %w", ls.n, core, kind, addr, err)
	}
	if ls.n%checkEvery == 0 {
		return ls.checkState()
	}
	return nil
}

// drive makes the next n accesses of s on both sides and then
// compares the full state.
func (ls *lockstep) drive(s opStream, n int) error {
	if err := s.run(ls, n); err != nil {
		return err
	}
	return ls.check()
}

// check compares the counters and then the full state.
func (ls *lockstep) check() error {
	if err := ls.checkCounters(); err != nil {
		return err
	}
	return ls.checkState()
}

func (ls *lockstep) checkCounters() error {
	if ls.h.Traffic != ls.o.traffic {
		return fmt.Errorf("Traffic%s", statecheck.Diff(ls.h.Traffic, ls.o.traffic))
	}
	for c := range ls.h.Cores {
		if ls.h.Cores[c] != ls.o.cores[c] {
			return fmt.Errorf("Cores[%d]%s", c, statecheck.Diff(ls.h.Cores[c], ls.o.cores[c]))
		}
	}
	return nil
}

// checkState compares every cache way by way, the victim cache and the
// prefetchers.
func (ls *lockstep) checkState() error {
	h, o := ls.h, ls.o
	where := fmt.Sprintf("after access %d", ls.n)
	got, want := []*cache.Cache{h.llc}, []*refCache{o.llc}
	for c := range h.cfg.Cores {
		got = append(got, h.l1i[c], h.l1d[c], h.l2[c])
		want = append(want, o.l1i[c], o.l1d[c], o.l2[c])
	}
	for i, cc := range got {
		if err := sameWays(cc, want[i]); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
	}
	var vc []refVictim
	if h.vc != nil {
		for i, a := range h.vc.addrs {
			vc = append(vc, refVictim{a, h.vc.dirty[i]})
		}
	}
	if g, w := fmt.Sprint(vc), fmt.Sprint(o.victims); g != w {
		return fmt.Errorf("%s: victim cache holds %s, want %s", where, g, w)
	}
	for c := range o.pf {
		if d := statecheck.Diff(h.pf[c], o.pf[c]); d != "" {
			return fmt.Errorf("%s: prefetcher %d%s", where, c, d)
		}
	}
	return nil
}

// sameWays compares every way of a cache with its reference: the line
// it holds and the way's replacement rank.
func sameWays(got *cache.Cache, want *refCache) error {
	for s, ways := range want.sets {
		for w, l := range ways {
			exp := cache.Line{Addr: l.addr, Valid: l.valid, Dirty: l.dirty, Presence: l.presence}
			if g := got.Line(s, w); g != exp {
				return fmt.Errorf("%s set %d way %d holds %+v, want %+v", want.name, s, w, g, exp)
			}
			if g, r := got.WayRank(s, w), want.rank(s, w); g != r {
				return fmt.Errorf("%s set %d way %d has replacement rank %d, want %d", want.name, s, w, g, r)
			}
		}
	}
	return nil
}

// xorshift is the deterministic generator behind the lockstep streams.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// accessor takes a stream's accesses: the lockstep, or a bare
// Hierarchy in the allocation gate (alloc_test.go).
type accessor interface {
	// access makes one demand access.
	access(core int, kind AccessKind, addr uint64) error
	// fetch makes an instruction fetch the way the run loop does.
	fetch(core int, pc uint64) error
}

// opStream is a deterministic access stream. Its constructor builds
// all of its state, so run allocates nothing of its own.
type opStream interface {
	// run makes the stream's next n accesses on a.
	run(a accessor, n int) error
}

// randomStream makes accesses of random cores, kinds and lines over
// four times the LLC's capacity, shared by every core; one access in
// sixteen is mirrored to the top of the address space.
type randomStream struct {
	r         xorshift
	cores     uint64
	footprint uint64
}

func randomOps(cfg Config, seed uint64) *randomStream {
	return &randomStream{r: xorshift(seed), cores: uint64(cfg.Cores), footprint: uint64(4 * cfg.LLCSize)}
}

func (s *randomStream) run(a accessor, n int) error {
	for range n {
		x := s.r.next()
		addr := x >> 16 % s.footprint
		if x>>60 == 0 {
			addr = ^uint64(0) - addr
		}
		if err := a.access(int(x%s.cores), AccessKind(x>>8%3), addr); err != nil {
			return err
		}
	}
	return nil
}

// fetchStream makes instructions on random cores. Each core fetches
// sequentially, 4 bytes at a time, and branches to a random target one
// instruction in eight, so most fetches repeat the previous fetch's
// line and meet the ifetch memo; a branch may also move the core's
// code and data to the top of the address space or back. About one
// instruction in three also loads or stores.
type fetchStream struct {
	r          xorshift
	cores      uint64
	code, data uint64
	pcs        []uint64
	top        []bool
}

func fetchOps(cfg Config, seed uint64) *fetchStream {
	return &fetchStream{
		r:     xorshift(seed),
		cores: uint64(cfg.Cores),
		code:  uint64(2 * cfg.LLCSize),
		data:  uint64(4 * cfg.LLCSize),
		pcs:   make([]uint64, cfg.Cores),
		top:   make([]bool, cfg.Cores),
	}
}

// place mirrors addr to the top of the address space while core c runs
// there.
func (s *fetchStream) place(c int, addr uint64) uint64 {
	if s.top[c] {
		return ^uint64(0) - addr
	}
	return addr
}

func (s *fetchStream) run(a accessor, n int) error {
	for range n {
		x := s.r.next()
		c := int(x % s.cores)
		if x>>8%8 == 0 {
			s.pcs[c] = x >> 16 % s.code &^ 3
			s.top[c] = s.top[c] != (x>>60 == 0)
		} else {
			s.pcs[c] = (s.pcs[c] + 4) % s.code
		}
		if err := a.fetch(c, s.place(c, s.pcs[c])); err != nil {
			return err
		}
		if x>>11%3 == 0 {
			kind := Load
			if x>>13&1 == 0 {
				kind = Store
			}
			if err := a.access(c, kind, s.place(c, x>>32%s.data)); err != nil {
				return err
			}
		}
	}
	return nil
}

// loopStream alternates two phases of loopPhase loads and stores, one
// store in four, each core reading a lap in turn:
//
//   - thrash: a loop over the LLC's lines and a quarter more. LRU and
//     SRRIP miss on every access of it, while their bimodal fills keep
//     most of each set, so a base leader set misses more than a bimodal
//     one and PSEL climbs to its top;
//   - shift: fresh regions of half the LLC's lines, each read eight
//     times over before the next. LRU and SRRIP keep a region after one
//     miss a line, while bimodal fills evict one another, so PSEL falls
//     to the bottom.
type loopStream struct {
	cores uint64
	line  uint64 // the line size
	lines uint64 // the LLC's line count
	i     uint64 // accesses made
}

// loopPhase is the length of one loopStream phase.
const loopPhase = 20_000

func loopOps(cfg Config) *loopStream {
	return &loopStream{cores: uint64(cfg.Cores), line: uint64(cfg.LineSize), lines: uint64(cfg.LLCSize / cfg.LineSize)}
}

func (s *loopStream) run(a accessor, n int) error {
	for range n {
		i := s.i % loopPhase
		phase := s.i / loopPhase
		thrash, region := s.lines+s.lines/4, s.lines/2
		lap := thrash
		line := i % thrash
		if phase%2 == 1 {
			lap = region
			// Regions follow one another past the thrash loop's lines.
			line = thrash + (phase*loopPhase+i)/(8*region)*region + i%region
		}
		kind := Load
		if s.i%4 == 3 {
			kind = Store
		}
		core := int(i / lap % s.cores)
		s.i++
		if err := a.access(core, kind, line*s.line); err != nil {
			return err
		}
	}
	return nil
}

// lockstepCase is one machine the lockstep runs.
type lockstepCase struct {
	name string
	cfg  Config
}

// wideConfig is a small machine with the paper's associativities:
// 4-way L1s, an 8-way L2 and a 16-way LLC.
func wideConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.L1ISize, cfg.L1DSize = 1<<10, 1<<10
	cfg.L2Size = 4 << 10
	cfg.LLCSize = 16 << 10
	return cfg
}

// lockstepConfigs lists the machines the lockstep, the allocation gate
// and FuzzHierarchyAccess run: every inclusion mode and TLA policy,
// every replacement.Kind in the LLC under no TLA policy, QBS and ECI,
// and banked LLCs. The first six are the machine modes
// TestAuditorCleanAcrossPolicies runs. FuzzHierarchyAccess selects a
// machine by six bits, so the list stops at 64 (TestFuzzReachesEveryMachine).
func lockstepConfigs() []lockstepCase {
	type variant struct {
		name string
		set  func(*Config)
	}
	pf := func(c *Config) { c.EnablePrefetch = true }
	modes := []variant{
		{"baseline", func(*Config) {}},
		{"tlh", func(c *Config) { c.TLA = TLATLH }},
		{"eci", func(c *Config) { c.TLA = TLAECI }},
		{"qbs", func(c *Config) { c.TLA = TLAQBS }},
		{"non-inclusive", func(c *Config) { c.Inclusion = NonInclusive }},
		{"exclusive", func(c *Config) { c.Inclusion = Exclusive }},
	}
	var cases []lockstepCase
	add := func(name string, base Config, sets ...func(*Config)) {
		for _, set := range sets {
			set(&base)
		}
		cases = append(cases, lockstepCase{name, base})
	}
	for _, m := range modes {
		add(m.name, smallConfig(2), m.set)
	}
	for _, m := range modes {
		add(m.name+"+pf", smallConfig(2), m.set, pf)
	}
	for _, v := range []variant{
		{"tlh-l2", func(c *Config) { c.TLA, c.TLHSources = TLATLH, L2C }},
		{"tlh-all-sampled", func(c *Config) { c.TLA, c.TLHSources, c.TLHPerMille = TLATLH, AllCaches, 300 }},
		{"qbs-l1", func(c *Config) { c.TLA, c.QBSProbe = TLAQBS, L1Caches }},
		{"qbs-l2", func(c *Config) { c.TLA, c.QBSProbe = TLAQBS, L2C }},
		{"qbs-limit1", func(c *Config) { c.TLA, c.QBSMaxQueries = TLAQBS, 1 }},
		{"qbs-limit2+pf", func(c *Config) { c.TLA, c.QBSMaxQueries = TLAQBS, 2; pf(c) }},
		{"qbs-modified", func(c *Config) { c.TLA, c.QBSEvictSaved = TLAQBS, true }},
		{"l2-inclusive", func(c *Config) { c.L2Inclusive = true }},
		{"l2-qbs+pf", func(c *Config) { c.L2Inclusive, c.L2QBS = true, true; pf(c) }},
		{"l2-qbs-llc-qbs", func(c *Config) { c.L2Inclusive, c.L2QBS, c.TLA = true, true, TLAQBS }},
		{"l2-inclusive-non-inclusive", func(c *Config) { c.L2Inclusive, c.Inclusion = true, NonInclusive }},
		{"broadcast", func(c *Config) { c.BroadcastInvalidate = true }},
		{"broadcast-eci", func(c *Config) { c.BroadcastInvalidate, c.TLA = true, TLAECI }},
		{"broadcast-qbs-modified", func(c *Config) { c.BroadcastInvalidate, c.TLA, c.QBSEvictSaved = true, TLAQBS, true }},
		{"broadcast-non-inclusive-qbs-modified", func(c *Config) {
			c.BroadcastInvalidate, c.Inclusion, c.TLA, c.QBSEvictSaved = true, NonInclusive, TLAQBS, true
		}},
		{"victim-cache", func(c *Config) { c.VictimCacheEntries = 32 }},
		{"victim-cache-non-inclusive", func(c *Config) { c.VictimCacheEntries, c.Inclusion = 8, NonInclusive }},
		{"victim-cache-exclusive+pf", func(c *Config) { c.VictimCacheEntries, c.Inclusion = 8, Exclusive; pf(c) }},
		{"victim-cache-qbs", func(c *Config) { c.VictimCacheEntries, c.TLA = 8, TLAQBS }},
		{"lru-llc-eci", func(c *Config) { c.LLCPolicy, c.TLA = replacement.LRU, TLAECI }},
		{"lru-llc-qbs", func(c *Config) { c.LLCPolicy, c.TLA = replacement.LRU, TLAQBS }},
		{"nru-l2", func(c *Config) { c.L2Policy = replacement.NRU }},
	} {
		add(v.name, smallConfig(2), v.set)
	}
	for _, p := range []replacement.Kind{replacement.SRRIP, replacement.DIP, replacement.DRRIP} {
		for _, tla := range []TLAPolicy{TLANone, TLAQBS, TLAECI} {
			add(strings.ToLower(p.String()+"-llc-"+tla.String()), smallConfig(2), func(c *Config) { c.LLCPolicy, c.TLA = p, tla })
		}
	}
	add("banked", smallConfig(2), func(c *Config) { c.LLCBanks = 2 })
	add("banked-4-occupancy-3-qbs+pf", smallConfig(2), modes[3].set, pf, func(c *Config) { c.LLCBanks, c.BankOccupancy = 4, 3 })
	add("1core-baseline+pf", smallConfig(1), pf)
	add("1core-qbs", smallConfig(1), modes[3].set)
	add("1core-exclusive+pf", smallConfig(1), modes[5].set, pf)
	add("4core-baseline+pf", smallConfig(4), pf)
	add("4core-eci", smallConfig(4), modes[2].set)
	add("4core-qbs-modified", smallConfig(4), func(c *Config) { c.TLA, c.QBSEvictSaved = TLAQBS, true })
	add("4core-non-inclusive+pf", smallConfig(4), modes[4].set, pf)
	add("4core-exclusive", smallConfig(4), modes[5].set)
	add("wide-baseline+pf", wideConfig(2), pf)
	add("wide-tlh", wideConfig(2), modes[1].set)
	add("wide-qbs", wideConfig(2), modes[3].set)
	add("wide-exclusive+pf", wideConfig(2), modes[5].set, pf)
	return cases
}

// TestLockstep runs every lockstep machine on a random stream (with
// decision tracing on), a fetch-locality stream and a looping stream,
// and requires the hierarchy to agree with its reference after every
// access. On a DIP or DRRIP LLC, the looping stream must also leave
// the follower sets filling under both policies and, without QBS,
// drive PSEL to its top.
func TestLockstep(t *testing.T) {
	for i, tc := range lockstepConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			seed := 0x9E3779B97F4A7C15 ^ uint64(i+1)
			t.Run("random", func(t *testing.T) {
				if err := newLockstep(t, tc.cfg, true).drive(randomOps(tc.cfg, seed), 20_000); err != nil {
					t.Fatal(err)
				}
			})
			t.Run("fetch", func(t *testing.T) {
				if err := newLockstep(t, tc.cfg, false).drive(fetchOps(tc.cfg, seed), 20_000); err != nil {
					t.Fatal(err)
				}
			})
			t.Run("loop", func(t *testing.T) {
				ls := newLockstep(t, tc.cfg, false)
				if err := ls.drive(loopOps(tc.cfg), 4*loopPhase); err != nil {
					t.Fatal(err)
				}
				// The reference's own counts show the stream reached both
				// sides of the duel. QBS promotes a bimodal fill that a
				// core cache still holds, so under QBS both leaders thrash
				// alike and PSEL only creeps towards its top.
				llc := ls.o.llc
				if llc.kind != replacement.DIP && llc.kind != replacement.DRRIP {
					return
				}
				if llc.followerFills[0] == 0 || llc.followerFills[1] == 0 {
					t.Fatalf("followers filled %d times under the base policy and %d under the bimodal one, want both",
						llc.followerFills[0], llc.followerFills[1])
				}
				if tc.cfg.TLA != TLAQBS && !llc.pselHeld[1] {
					t.Fatal("PSEL never reached its top")
				}
			})
		})
	}
}
