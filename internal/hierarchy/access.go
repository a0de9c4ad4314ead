package hierarchy

import (
	"math/bits"

	"tlacache/internal/cache"
	"tlacache/internal/telemetry"
)

// Result reports where a demand access was satisfied and its
// load-to-use latency in cycles.
type Result struct {
	Level   Level
	Latency uint64
}

// noILine is the unarmed value of a per-core ifetch memo. Line
// addresses are always even (the line size is at least two bytes), so
// an odd sentinel can never match one.
const noILine uint64 = 1

// clearIFetchMemos disarms every core's ifetch memo.
func (h *Hierarchy) clearIFetchMemos() {
	for i := range h.lastILine {
		h.lastILine[i] = noILine
	}
}

// dropIFetchMemo disarms core's ifetch memo when it names addr. Every
// path that removes a line from an L1I other than the owning core's own
// fetch stream must call this, or the memo would keep reporting hits
// for a line that is gone.
func (h *Hierarchy) dropIFetchMemo(core int, addr uint64) {
	if h.lastILine[core] == addr {
		h.lastILine[core] = noILine
	}
}

// Access performs one demand access for core. addr is a byte address;
// kind selects the instruction or data path and write-allocation. The
// returned Result feeds the core timing model. With a banked LLC
// configured, use AccessAt so queueing delays are computed against real
// time; Access itself treats every access as arriving at cycle 0.
func (h *Hierarchy) Access(core int, kind AccessKind, addr uint64) Result {
	return h.AccessAt(core, kind, addr, 0)
}

// IFetchMemoHit attempts core's instruction-fetch memo without the
// full access path: when addr falls on the memoized line — the line of
// the previous fetch, which hit in the L1I — it counts the L1I hit and
// returns true, and the fetch's Result is LevelL1 at the configured L1
// latency. The line is still resident (every removal clears the memo)
// and its replacement state already reflects a hit touch, which a
// second touch would not change for any policy. AccessAt is far beyond
// the inliner's budget, so the simulator's per-instruction loop calls
// this (inlinable) check before AccessAt to skip the call on the large
// majority of fetches that repeat the previous fetch's line; a false
// return means the fetch must take the full AccessAt path, which arms
// the memo on an L1I hit and disarms it on a miss. Configurations that
// never arm the memo (TLH with IL1 among its hint sources: an L1I hit
// must still deliver its hint) simply always return false.
func (h *Hierarchy) IFetchMemoHit(core int, addr uint64) bool {
	if h.llc.LineAddr(addr) == h.lastILine[core] {
		h.Cores[core].L1I.Accesses++
		return true
	}
	return false
}

// AccessAt is Access with the requesting core's current cycle, which
// the banked-LLC model (Config.LLCBanks) uses to charge bank queueing
// delays. The simulator's min-cycle core interleaving delivers accesses
// in approximately global time order, which keeps the per-bank
// next-free-cycle bookkeeping meaningful.
func (h *Hierarchy) AccessAt(core int, kind AccessKind, addr uint64, now uint64) Result {
	la := h.llc.LineAddr(addr)
	cs := &h.Cores[core]

	l1 := h.l1d[core]
	l1Stats := &cs.L1D
	src := DL1
	if kind == IFetch {
		l1, l1Stats, src = h.l1i[core], &cs.L1I, IL1
	}

	// L1 lookup. Lookup resolves the set/way once; the hit path then
	// operates on those coordinates instead of re-probing by address.
	l1Stats.Accesses++
	if set, way, ok := l1.Lookup(la); ok {
		l1.PromoteWay(set, way)
		if kind == Store {
			l1.SetDirtyAt(set, way)
		}
		if h.tlhOn {
			h.maybeHint(src, la)
		}
		if kind == IFetch && h.memoOn {
			h.lastILine[core] = la
		}
		return Result{LevelL1, h.cfg.Latency.L1}
	}
	l1Stats.Misses++
	if kind == IFetch {
		// The fill below installs la at insertion (not hit) priority and
		// may evict the memoized line, so the memo must not survive an
		// ifetch miss.
		h.lastILine[core] = noILine
	}

	// L2 lookup.
	cs.L2.Accesses++
	if l2 := h.l2[core]; l2.Touch(la) {
		if h.tlhOn {
			h.maybeHint(L2C, la)
		}
		set, way := h.fillL1(core, kind, la)
		if kind == Store {
			l1.SetDirtyAt(set, way)
		}
		return Result{LevelL2, h.cfg.Latency.L2}
	}
	cs.L2.Misses++

	res := h.accessLLC(core, kind, la, now)
	if kind == Store {
		l1.SetDirty(la)
	}

	// The stream prefetcher trains on L2 demand misses and fills the
	// L2 (paper §IV-A). Prefetch fills happen after the demand fill so
	// the demand line is already installed.
	if h.pf != nil {
		h.buf = h.pf[core].OnMiss(la, h.buf[:0])
		h.Traffic.PrefetchIssued += uint64(len(h.buf))
		for _, pa := range h.buf {
			h.prefetchFill(core, pa)
		}
	}
	return res
}

// accessLLC handles an access that missed the core caches: bank
// queueing (when configured), LLC lookup, optional victim-cache lookup,
// memory fetch, and the fills back down the hierarchy.
func (h *Hierarchy) accessLLC(core int, kind AccessKind, la uint64, now uint64) Result {
	var bankDelay uint64
	if h.bankFree != nil {
		bank := h.llc.SetIndex(la) % len(h.bankFree)
		if h.bankFree[bank] > now {
			bankDelay = h.bankFree[bank] - now
			h.Traffic.BankConflictCycles += bankDelay
		}
		h.bankFree[bank] = now + bankDelay + h.bankOccupancy
	}
	res := h.lookupLLC(core, kind, la)
	res.Latency += bankDelay
	return res
}

// lookupLLC performs the functional LLC access.
func (h *Hierarchy) lookupLLC(core int, kind AccessKind, la uint64) Result {
	cs := &h.Cores[core]
	cs.LLC.Accesses++

	if set, way, ok := h.llc.Lookup(la); ok {
		if h.cfg.Inclusion == Exclusive {
			// Exclusive hit path: the line moves up and the LLC copy
			// is invalidated (paper §IV-A).
			line := h.llc.InvalidateAt(set, way)
			h.allocL2(core, la)
			if line.Dirty {
				h.l2[core].SetDirty(la)
			}
		} else {
			// An LLC hit on a line with an empty presence mask under ECI
			// is a rescue: the line was early-invalidated from the core
			// caches and the prompt re-reference ECI bet on has arrived.
			// The TLA check leads so non-ECI runs skip the presence read.
			if h.cfg.TLA == TLAECI && h.llc.PresenceAt(set, way) == 0 {
				h.tel.ECIRescue(la)
			}
			h.llc.PromoteWay(set, way)
			h.llc.AddPresenceAt(set, way, core)
			h.allocL2(core, la)
		}
		h.fillL1(core, kind, la)
		return Result{LevelLLC, h.cfg.Latency.LLC}
	}
	cs.LLC.Misses++

	// Without inclusion, an LLC miss cannot rule out copies in other
	// cores' caches: coherence must snoop them (the per-core address
	// spaces here mean the snoops always miss, but the messages — the
	// cost the paper's introduction weighs — are real).
	if h.cfg.Inclusion != Inclusive && h.cfg.Cores > 1 {
		h.Traffic.CoherenceSnoops += uint64(h.cfg.Cores - 1)
	}

	// Optional victim cache (paper §VI related-work comparison).
	if h.vc != nil {
		if dirty, ok := h.vc.remove(la); ok {
			h.Traffic.VictimCacheHits++
			if h.cfg.Inclusion == Exclusive {
				h.allocL2(core, la)
				if dirty {
					h.l2[core].SetDirty(la)
				}
			} else {
				// fillLLC installs the line with this core's presence bit.
				h.fillLLC(core, la, dirty)
				h.allocL2(core, la)
			}
			h.fillL1(core, kind, la)
			return Result{LevelVictimCache, h.latency(LevelVictimCache)}
		}
	}

	// Memory fetch.
	h.Traffic.MemoryReads++
	if h.cfg.Inclusion != Exclusive {
		// fillLLC installs the line with this core's presence bit.
		h.fillLLC(core, la, false)
	}
	h.allocL2(core, la)
	h.fillL1(core, kind, la)
	return Result{LevelMemory, h.cfg.Latency.Memory}
}

// fillL1 installs la into core's L1 (I or D side), writing a dirty
// victim back to the L2. It returns the set and way the line landed in
// so store handling can mark it dirty without another probe.
func (h *Hierarchy) fillL1(core int, kind AccessKind, la uint64) (set, way int) {
	l1 := h.l1d[core]
	if kind == IFetch {
		l1 = h.l1i[core]
	}
	set = l1.SetIndex(la)
	way = l1.VictimWay(set)
	victim, evicted := l1.FillWay(set, way, la, 0)
	if evicted && victim.Dirty {
		h.writebackToL2(core, victim.Addr)
	}
	return set, way
}

// writebackToL2 merges a dirty L1 victim into the L2, allocating when
// the L2 no longer holds the line (possible because the L2 is
// non-inclusive of the L1s and may have silently evicted it).
func (h *Hierarchy) writebackToL2(core int, addr uint64) {
	l2 := h.l2[core]
	if l2.SetDirty(addr) {
		return
	}
	// In exclusive mode an allocation here can race a copy that already
	// moved into the LLC (the L2 evicted the line while the L1 kept
	// it); the newer L1 data wins and the stale LLC copy is dropped.
	if h.cfg.Inclusion == Exclusive {
		h.llc.Invalidate(addr)
	}
	h.allocL2(core, addr)
	l2.SetDirty(addr)
}

// allocL2 allocates la in core's L2: victim selection (QBS-at-L2 when
// configured, the footnote 3 remedy), L2-inclusion enforcement, and
// disposal of the displaced line. The new line is inserted clean.
func (h *Hierarchy) allocL2(core int, la uint64) {
	l2 := h.l2[core]
	set := l2.SetIndex(la)
	way := l2.VictimWay(set)
	if h.cfg.L2QBS {
		for q := 0; q < h.cfg.L2Assoc; q++ {
			line := l2.Line(set, way)
			if !line.Valid {
				break
			}
			h.Traffic.L2QBSQueries++
			if !h.l1i[core].Contains(line.Addr) && !h.l1d[core].Contains(line.Addr) {
				break
			}
			h.Traffic.L2QBSSaves++
			l2.PromoteWay(set, way)
			next := l2.VictimWay(set)
			if next == way {
				break
			}
			way = next
		}
	}
	victim := l2.Line(set, way)
	if victim.Valid && h.cfg.L2Inclusive {
		// The inclusive L2 back-invalidates its L1s; dirty L1 data
		// merges into the departing L2 line.
		h.Traffic.L2BackInvalidates++
		removed := false
		if l, ok := h.l1i[core].Invalidate(victim.Addr); ok {
			removed = true
			victim.Dirty = victim.Dirty || l.Dirty
			h.dropIFetchMemo(core, victim.Addr)
		}
		if l, ok := h.l1d[core].Invalidate(victim.Addr); ok {
			removed = true
			victim.Dirty = victim.Dirty || l.Dirty
		}
		if removed {
			h.Cores[core].L2InclusionVictims++
		}
	}
	l2.FillWay(set, way, la, 0)
	if victim.Valid {
		h.handleL2Victim(core, victim)
	}
}

// handleL2Victim disposes of a line evicted from core's L2. In exclusive
// mode every L2 victim — clean or dirty — inserts into the LLC (this is
// the exclusive fill path and the source of its bandwidth cost). In the
// other modes dirty victims write back to the LLC copy when it exists
// and to memory otherwise; clean victims are dropped silently, which is
// why LLC presence bits are a conservative superset.
func (h *Hierarchy) handleL2Victim(core int, victim cache.Line) {
	if h.cfg.Inclusion == Exclusive {
		h.insertLLCFromL2(core, victim)
		return
	}
	if !victim.Dirty {
		return
	}
	if !h.llc.SetDirty(victim.Addr) {
		h.Traffic.WritebacksToMem++
	}
}

// insertLLCFromL2 implements the exclusive LLC's fill-on-L2-eviction
// path. core identifies the L2 whose eviction is being disposed of
// (decision traces attribute the choice to it).
func (h *Hierarchy) insertLLCFromL2(core int, victim cache.Line) {
	// A line still resident in another core's L2 (a shared line) stays
	// out of the exclusive LLC; dirty data that has no LLC home goes
	// straight to memory. Same-core L1 copies may coexist with the LLC
	// transiently, as in the paper's simplified exclusive model.
	if h.residentInCores(victim.Addr, uint64(1)<<uint(h.cfg.Cores)-1, L2C) {
		if victim.Dirty {
			h.Traffic.WritebacksToMem++
		}
		return
	}
	set := h.llc.SetIndex(victim.Addr)
	way := h.llc.VictimWay(set)
	traced := h.tel.TracesDecisions()
	if traced {
		h.beginDecision(core, set, way, victim.Addr)
	}
	victims := 0
	if old := h.llc.Line(set, way); old.Valid {
		victims = h.evictLLCLine(old)
	}
	if traced {
		h.dec.InclusionVictims = victims
		h.tel.Decision(&h.dec)
	}
	h.llc.FillWay(set, way, victim.Addr, 0)
	if victim.Dirty {
		h.llc.SetDirty(victim.Addr)
	}
}

// fillLLC allocates la in the LLC on a miss: victim selection (QBS when
// configured), eviction with inclusion enforcement, the fill itself,
// and ECI's early invalidation of the next candidate.
func (h *Hierarchy) fillLLC(core int, la uint64, dirty bool) {
	set := h.llc.SetIndex(la)
	way := h.selectLLCVictim(set)
	traced := h.tel.TracesDecisions()
	if traced {
		h.beginDecision(core, set, way, la)
	}
	victims := 0
	if old := h.llc.Line(set, way); old.Valid {
		victims = h.evictLLCLine(old)
	}
	if traced {
		h.dec.InclusionVictims = victims
		h.tel.Decision(&h.dec)
	}
	h.llc.FillWay(set, way, la, 1<<uint(core))
	if dirty {
		h.llc.SetDirty(la)
	}
	if h.cfg.TLA == TLAECI {
		h.earlyCoreInvalidate(set, la)
	}
}

// beginDecision snapshots one LLC victim choice into the reusable
// scratch record — every candidate way pre-eviction, the chosen way,
// and the way a read-only QBS emulation would suggest. Called only when
// the recorder traces decisions; the record is handed over after
// eviction so it can carry the inclusion-victim count.
func (h *Hierarchy) beginDecision(core, set, way int, la uint64) {
	d := &h.dec
	d.Seq++
	d.Core = core
	d.Set = set
	d.NewAddr = la
	d.ChosenWay = way
	d.InclusionVictims = 0
	cands := d.Candidates[:h.cfg.LLCAssoc]
	for w := range cands {
		line := h.llc.Line(set, w)
		cands[w] = telemetry.DecisionCandidate{
			Way:      w,
			Addr:     line.Addr,
			Valid:    line.Valid,
			Dirty:    line.Dirty,
			Presence: line.Presence,
			Rank:     h.llc.WayRank(set, w),
		}
	}
	d.Candidates = cands
	d.QBSWay = h.qbsSuggestedWay(way)
}

// qbsSuggestedWay emulates, read-only, the victim QBS would suggest for
// the decision currently in the scratch record: the chosen way itself
// when it is empty or core-non-resident (QBS agrees), otherwise the
// highest-ranked candidate no core cache holds (ties to the lower way,
// matching the deterministic scan order of real victim selection), or
// telemetry.NoWay when every candidate is resident — the case where
// real QBS would exhaust its query budget. The emulation probes the
// same cache set QBS is configured for (defaulting to all caches when
// the run's policy is not QBS).
func (h *Hierarchy) qbsSuggestedWay(chosen int) int {
	cands := h.dec.Candidates
	probe := h.cfg.QBSProbe
	if probe == 0 {
		probe = AllCaches
	}
	c := &cands[chosen]
	if !c.Valid {
		return chosen
	}
	if pres := h.effectivePresence(c.Presence); pres == 0 || !h.residentInCores(c.Addr, pres, probe) {
		return chosen
	}
	best, bestRank := telemetry.NoWay, -1
	for w := range cands {
		if w == chosen {
			continue
		}
		cc := &cands[w]
		if !cc.Valid || int(cc.Rank) <= bestRank {
			continue
		}
		if pres := h.effectivePresence(cc.Presence); pres != 0 && h.residentInCores(cc.Addr, pres, probe) {
			continue
		}
		best, bestRank = w, int(cc.Rank)
	}
	return best
}

// selectLLCVictim picks the way fillLLC will displace. Under QBS it
// implements the paper's query loop: while the candidate is resident in
// a core cache (per the configured probe set), promote it to MRU and
// try the next candidate, up to the query limit. Candidates whose
// directory presence mask is empty are evicted without spending a
// query — the directory already proves no core holds them. The
// recorder observes each selection's query count.
func (h *Hierarchy) selectLLCVictim(set int) int {
	way := h.llc.VictimWay(set)
	if h.cfg.TLA != TLAQBS {
		return way
	}
	limit := h.cfg.QBSMaxQueries
	if limit == 0 {
		limit = h.cfg.LLCAssoc
	}
	q := 0
	for q < limit {
		line := h.llc.Line(set, way)
		presence := h.effectivePresence(line.Presence)
		if !line.Valid || presence == 0 {
			break
		}
		h.Traffic.QBSQueries++
		q++
		if !h.residentInCores(line.Addr, presence, h.cfg.QBSProbe) {
			break
		}
		h.Traffic.QBSSaves++
		h.llc.PromoteWay(set, way)
		if h.cfg.QBSEvictSaved {
			// Modified QBS (footnote 6): the saved line keeps its
			// refreshed LLC state but is invalidated from the core
			// caches, so the next reference becomes an LLC hit.
			h.invalidateInCores(line.Addr, line.Presence)
			h.llc.ClearPresence(line.Addr)
		}
		next := h.llc.VictimWay(set)
		if next == way {
			// Fixed point (possible under SRRIP when a whole set is
			// near-immediate): promoting changed nothing, so further
			// queries would repeat verbatim. Accept the candidate.
			break
		}
		way = next
	}
	h.tel.QBSSelection(q)
	return way
}

// effectivePresence widens a directory mask to all cores when the
// broadcast-invalidate ablation is enabled.
func (h *Hierarchy) effectivePresence(presence uint64) uint64 {
	if h.cfg.BroadcastInvalidate {
		return uint64(1)<<uint(h.cfg.Cores) - 1
	}
	return presence
}

// residentInCores reports whether any core named in the presence mask
// holds addr in one of the caches selected by probe.
func (h *Hierarchy) residentInCores(addr uint64, presence uint64, probe CacheSet) bool {
	for presence != 0 {
		c := bits.TrailingZeros64(presence)
		presence &^= 1 << uint(c)
		if probe&IL1 != 0 && h.l1i[c].Contains(addr) {
			return true
		}
		if probe&DL1 != 0 && h.l1d[c].Contains(addr) {
			return true
		}
		if probe&L2C != 0 && h.l2[c].Contains(addr) {
			return true
		}
	}
	return false
}

// evictLLCLine retires a valid line leaving the LLC: inclusive mode
// back-invalidates the core caches, the victim cache absorbs the line
// when configured, and dirty data reaches memory. It returns the number
// of cores that lost a valid copy to the back-invalidation (always 0
// outside the inclusive mode), which decision tracing records.
func (h *Hierarchy) evictLLCLine(victim cache.Line) int {
	dirty := victim.Dirty
	victims := 0
	if h.cfg.Inclusion == Inclusive {
		var d bool
		d, victims = h.backInvalidate(victim.Addr, h.effectivePresence(victim.Presence))
		if d {
			dirty = true
		}
	}
	if h.vc != nil {
		h.Traffic.VictimCacheFills++
		if _, evDirty, evicted := h.vc.insert(victim.Addr, dirty); evicted && evDirty {
			h.Traffic.WritebacksToMem++
		}
		return victims
	}
	if dirty {
		h.Traffic.WritebacksToMem++
	}
	return victims
}

// backInvalidate removes addr from every core cache of the cores in the
// presence mask, enforcing inclusion. It returns whether any removed
// copy was dirty (the data merges into the departing LLC line) and how
// many cores lost a valid copy — each such core suffers one inclusion
// victim.
func (h *Hierarchy) backInvalidate(addr uint64, presence uint64) (dirty bool, victims int) {
	for presence != 0 {
		c := bits.TrailingZeros64(presence)
		presence &^= 1 << uint(c)
		h.Traffic.BackInvalidates++
		removed := false
		if line, ok := h.l1i[c].Invalidate(addr); ok {
			removed = true
			dirty = dirty || line.Dirty
			h.dropIFetchMemo(c, addr)
		}
		if line, ok := h.l1d[c].Invalidate(addr); ok {
			removed = true
			dirty = dirty || line.Dirty
		}
		if line, ok := h.l2[c].Invalidate(addr); ok {
			removed = true
			dirty = dirty || line.Dirty
		}
		if removed {
			h.Cores[c].InclusionVictims++
			victims++
		}
	}
	return dirty, victims
}

// earlyCoreInvalidate implements ECI: after the regular victim flow of
// an LLC miss, the next potential victim is invalidated from the core
// caches but retained in the LLC, so a prompt re-reference hits the LLC
// and refreshes the line's replacement state (the "rescue"). justFilled
// guards the degenerate direct-mapped case where the next victim is the
// line just installed.
func (h *Hierarchy) earlyCoreInvalidate(set int, justFilled uint64) {
	way := h.llc.VictimWay(set)
	line := h.llc.Line(set, way)
	presence := h.effectivePresence(line.Presence)
	if !line.Valid || line.Addr == justFilled || presence == 0 {
		return
	}
	h.Traffic.ECISent++
	h.tel.ECIInvalidate(line.Addr)
	h.Traffic.ECIInvalidated += uint64(h.invalidateInCores(line.Addr, presence))
	h.llc.ClearPresence(line.Addr)
}

// invalidateInCores removes addr from the caches of every core in the
// presence mask, merging dirty copies into the LLC line (which the
// callers retain). It returns the number of cores that lost a valid
// copy. Used by ECI and by the modified-QBS variant.
func (h *Hierarchy) invalidateInCores(addr uint64, presence uint64) int {
	removed := 0
	for presence != 0 {
		c := bits.TrailingZeros64(presence)
		presence &^= 1 << uint(c)
		// Unrolled over the three core caches: a slice literal here
		// would allocate on every ECI/modified-QBS invalidation, which
		// sits on the steady-state path.
		any := false
		if l, ok := h.l1i[c].Invalidate(addr); ok {
			any = true
			if l.Dirty {
				h.llc.SetDirty(addr)
			}
			h.dropIFetchMemo(c, addr)
		}
		if l, ok := h.l1d[c].Invalidate(addr); ok {
			any = true
			if l.Dirty {
				h.llc.SetDirty(addr)
			}
		}
		if l, ok := h.l2[c].Invalidate(addr); ok {
			any = true
			if l.Dirty {
				h.llc.SetDirty(addr)
			}
		}
		if any {
			removed++
		}
	}
	return removed
}

// maybeHint delivers a temporal locality hint to the LLC for a hit in a
// configured source cache. Sampling (TLHPerMille) uses a deterministic
// counter so runs stay reproducible.
func (h *Hierarchy) maybeHint(src CacheSet, la uint64) {
	if h.cfg.TLA != TLATLH || h.cfg.TLHSources&src == 0 {
		return
	}
	if per := h.cfg.TLHPerMille; per < 1000 {
		h.hintClock++
		if int(h.hintClock%1000) >= per {
			return
		}
	}
	h.Traffic.TLHSent++
	h.llc.Touch(la)
}

// prefetchFill installs a prefetched line into the L2 (and, outside the
// exclusive mode, into the LLC when absent, preserving inclusion).
// Prefetches never perturb the demand statistics; only Traffic counters
// move.
func (h *Hierarchy) prefetchFill(core int, pa uint64) {
	la := h.llc.LineAddr(pa)
	if h.l2[core].Contains(la) {
		return
	}
	h.Traffic.PrefetchFills++
	switch h.cfg.Inclusion {
	case Exclusive:
		if set, way, ok := h.llc.Lookup(la); ok {
			line := h.llc.InvalidateAt(set, way)
			h.allocL2(core, la)
			if line.Dirty {
				h.l2[core].SetDirty(la)
			}
			return
		}
		h.Traffic.MemoryReads++
		h.allocL2(core, la)
	case Inclusive, NonInclusive:
		if set, way, ok := h.llc.Lookup(la); ok {
			h.llc.PromoteWay(set, way)
			h.llc.AddPresenceAt(set, way, core)
			h.allocL2(core, la)
		} else {
			h.Traffic.MemoryReads++
			h.fillLLC(core, la, false)
			h.allocL2(core, la)
		}
	}
}
