package hierarchy

import (
	"fmt"

	"tlacache/internal/cache"
)

// CheckInvariants verifies the structural properties the configured
// inclusion mode guarantees. The property tests call it, and the
// lockstep test (oracle_test.go) runs it as one of its structural
// probes beside every cache's CheckConsistency.
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

// TotalInclusionVictims sums inclusion victims across cores.
func (h *Hierarchy) TotalInclusionVictims() uint64 {
	var n uint64
	for i := range h.Cores {
		n += h.Cores[i].InclusionVictims
	}
	return n
}
