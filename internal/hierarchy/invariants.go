package hierarchy

import (
	"fmt"
	"reflect"

	"tlacache/internal/cache"
)

// CheckInvariants verifies the structural properties the configured
// inclusion mode guarantees. It is used by the property-based tests and
// is cheap enough to call from long-running simulations in debug runs.
//
//   - Inclusive: every valid line in any core cache is present in the
//     LLC, and is covered by that core's LLC presence bit.
//   - Exclusive: no line is present in both a core's L2 and the LLC
//     (L1 copies may transiently coexist with an LLC copy, as in the
//     paper's simplified exclusive model — see DESIGN.md).
//   - All modes: presence bits name only existing cores.
func (h *Hierarchy) CheckInvariants() error {
	switch h.cfg.Inclusion {
	case Inclusive:
		for c := 0; c < h.cfg.Cores; c++ {
			for _, cc := range []*cache.Cache{h.l1i[c], h.l1d[c], h.l2[c]} {
				var err error
				cc.ForEachValid(func(l cache.Line) {
					if err != nil {
						return
					}
					if !h.llc.Contains(l.Addr) {
						err = fmt.Errorf("inclusion violated: %s line %#x not in LLC", cc.Config().Name, l.Addr)
						return
					}
					if h.llc.Presence(l.Addr)&(1<<uint(c)) == 0 {
						err = fmt.Errorf("directory hole: %s line %#x lacks presence bit %d", cc.Config().Name, l.Addr, c)
					}
				})
				if err != nil {
					return err
				}
			}
		}
	case Exclusive:
		for c := 0; c < h.cfg.Cores; c++ {
			var err error
			h.l2[c].ForEachValid(func(l cache.Line) {
				if err == nil && h.llc.Contains(l.Addr) {
					err = fmt.Errorf("exclusion violated: line %#x in both L2[%d] and LLC", l.Addr, c)
				}
			})
			if err != nil {
				return err
			}
		}
	case NonInclusive:
		// Non-inclusion imposes no cross-level containment invariant:
		// the LLC neither guarantees nor forbids core-cache residency.
	}
	if h.cfg.L2Inclusive {
		for c := 0; c < h.cfg.Cores; c++ {
			for _, cc := range []*cache.Cache{h.l1i[c], h.l1d[c]} {
				var err error
				cc.ForEachValid(func(l cache.Line) {
					if err == nil && !h.l2[c].Contains(l.Addr) {
						err = fmt.Errorf("L2 inclusion violated: %s line %#x not in L2[%d]",
							cc.Config().Name, l.Addr, c)
					}
				})
				if err != nil {
					return err
				}
			}
		}
	}
	// An armed ifetch memo asserts its line is resident in the owning
	// core's L1I; a stale memo would fabricate hits.
	for c := 0; c < h.cfg.Cores; c++ {
		if la := h.lastILine[c]; la != noILine && !h.l1i[c].Contains(la) {
			return fmt.Errorf("ifetch memo stale: core %d line %#x not in L1I", c, la)
		}
	}
	var err error
	coreMask := uint64(1)<<uint(h.cfg.Cores) - 1
	h.llc.ForEachValid(func(l cache.Line) {
		if err == nil && l.Presence&^coreMask != 0 {
			err = fmt.Errorf("presence mask %#x of line %#x names nonexistent cores", l.Presence, l.Addr)
		}
	})
	return err
}

// Auditor performs deep periodic audits of a running hierarchy: the
// structural invariants of CheckInvariants, per-cache self-consistency
// (duplicate lines, set mapping, replacement metadata), counter
// monotonicity between audits, and conservation relations among the
// traffic counters. It is the dynamic counterpart of the cmd/tlavet
// static checks, wired to sim.Config.AuditEvery and `tlasim -audit N`.
//
// Create the Auditor at the point the counters' measurement window
// begins (sim does so right after the warmup reset): the baseline
// snapshot taken then is what conservation deltas are measured
// against. An Auditor must not be shared between hierarchies.
type Auditor struct {
	h    *Hierarchy
	base auditSnapshot // window start, for conservation deltas
	prev auditSnapshot // last audit, for monotonicity

	// Audits counts completed Audit calls.
	Audits uint64
}

// auditSnapshot freezes every counter the auditor reasons about.
type auditSnapshot struct {
	traffic Traffic
	cores   []CoreStats
}

// NewAuditor captures h's current counters as the audit baseline.
func NewAuditor(h *Hierarchy) *Auditor {
	a := &Auditor{h: h}
	a.base = a.snap()
	a.prev = a.base
	return a
}

func (a *Auditor) snap() auditSnapshot {
	return auditSnapshot{
		traffic: a.h.Traffic,
		cores:   append([]CoreStats(nil), a.h.Cores...),
	}
}

// Audit runs every check and, on success, advances the monotonicity
// snapshot. The first error is returned; the hierarchy is not
// modified either way.
func (a *Auditor) Audit() error {
	if err := a.h.CheckInvariants(); err != nil {
		return err
	}
	if err := a.checkCaches(); err != nil {
		return err
	}
	cur := a.snap()
	if err := a.checkMonotone(cur); err != nil {
		return err
	}
	if err := a.checkConservation(cur); err != nil {
		return err
	}
	a.prev = cur
	a.Audits++
	return nil
}

// checkCaches verifies every cache's structural self-consistency.
func (a *Auditor) checkCaches() error {
	h := a.h
	for c := 0; c < h.cfg.Cores; c++ {
		for _, cc := range []*cache.Cache{h.l1i[c], h.l1d[c], h.l2[c]} {
			if err := cc.CheckConsistency(); err != nil {
				return fmt.Errorf("audit: %w", err)
			}
		}
	}
	if err := h.llc.CheckConsistency(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}

// checkMonotone verifies no counter moved backwards since the last
// audit: Traffic and per-core stats are cumulative within a
// measurement window.
func (a *Auditor) checkMonotone(cur auditSnapshot) error {
	if err := monotoneFields("Traffic", reflect.ValueOf(a.prev.traffic), reflect.ValueOf(cur.traffic)); err != nil {
		return err
	}
	for i := range cur.cores {
		name := fmt.Sprintf("Cores[%d]", i)
		if err := monotoneFields(name, reflect.ValueOf(a.prev.cores[i]), reflect.ValueOf(cur.cores[i])); err != nil {
			return err
		}
	}
	return nil
}

// monotoneFields recursively compares every uint64 field of two values
// of the same struct type, erroring when one decreased.
func monotoneFields(name string, prev, cur reflect.Value) error {
	switch cur.Kind() {
	case reflect.Struct:
		for i := 0; i < cur.NumField(); i++ {
			field := name + "." + cur.Type().Field(i).Name
			if err := monotoneFields(field, prev.Field(i), cur.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Uint64:
		if cur.Uint() < prev.Uint() {
			return fmt.Errorf("audit: counter %s went backwards: %d -> %d", name, prev.Uint(), cur.Uint())
		}
	}
	return nil
}

// checkConservation verifies the arithmetic relations the traffic
// counters must satisfy over the window since the baseline: an event
// that is a subset of another cannot outnumber it.
func (a *Auditor) checkConservation(cur auditSnapshot) error {
	t, base := cur.traffic, a.base.traffic
	type relation struct {
		name     string
		sub, sup uint64
	}
	victims := sumInclusionVictims(cur.cores) - sumInclusionVictims(a.base.cores)
	rels := []relation{
		// Every core that loses lines to a back-invalidation received
		// at least one back-invalidate message.
		{"inclusion victims vs back-invalidates", victims, t.BackInvalidates - base.BackInvalidates},
		{"QBS saves vs queries", t.QBSSaves - base.QBSSaves, t.QBSQueries - base.QBSQueries},
		{"L2 QBS saves vs queries", t.L2QBSSaves - base.L2QBSSaves, t.L2QBSQueries - base.L2QBSQueries},
		// One ECI operation can invalidate at most one copy per core.
		{"ECI invalidations vs sent", t.ECIInvalidated - base.ECIInvalidated,
			(t.ECISent - base.ECISent) * uint64(a.h.cfg.Cores)},
		{"prefetch fills vs issued", t.PrefetchFills - base.PrefetchFills,
			t.PrefetchIssued - base.PrefetchIssued},
	}
	for _, r := range rels {
		if r.sub > r.sup {
			return fmt.Errorf("audit: conservation violated: %s: %d > %d", r.name, r.sub, r.sup)
		}
	}
	return nil
}

func sumInclusionVictims(cores []CoreStats) uint64 {
	var n uint64
	for i := range cores {
		n += cores[i].InclusionVictims
	}
	return n
}

// TotalInclusionVictims sums inclusion victims across cores.
func (h *Hierarchy) TotalInclusionVictims() uint64 {
	var n uint64
	for i := range h.Cores {
		n += h.Cores[i].InclusionVictims
	}
	return n
}
