package hierarchy

import (
	"fmt"
	"strings"
	"testing"
)

// TestAuditorCleanAcrossPolicies runs every policy and inclusion mode,
// with the prefetcher on, through 20,000 random accesses over a 64 KB
// footprint in lockstep with the reference hierarchy (which checks the
// full state every checkEvery accesses): a correct hierarchy never
// disagrees.
func TestAuditorCleanAcrossPolicies(t *testing.T) {
	for _, tc := range lockstepConfigs()[:6] { // the six machine modes
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.EnablePrefetch = true
			ls := newLockstep(t, cfg, false)
			x := xorshift(0x2545F4914F6CDD1D)
			for range 20_000 {
				v := x.next()
				if err := ls.access(int(v%2), AccessKind(v>>8)%3, (v>>16)%(64<<10)); err != nil {
					t.Fatal(err)
				}
			}
			if err := ls.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Corruption cases: each plants one fault in a hierarchy running in
// lockstep and requires the lockstep check to name it.
func lockstepError(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("lockstep accepted a corrupted hierarchy, want an error naming %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("lockstep error %q does not name %q", err, want)
	}
}

// TestAuditorDetectsInclusionBreach plants a core-cache line the LLC
// does not hold — the exact corruption a back-invalidation bug would
// produce. The reference's L1D does not hold it either.
func TestAuditorDetectsInclusionBreach(t *testing.T) {
	ls := newLockstep(t, smallConfig(2), false)
	ls.h.L1D(0).Fill(0x4_0000, 0)
	lockstepError(t, ls.check(), "L1D[0] set 0 way 0 holds {Addr:262144 Valid:true")
}

// TestAuditorDetectsDuplicateLine plants the same address in two ways
// of one LLC set.
func TestAuditorDetectsDuplicateLine(t *testing.T) {
	ls := newLockstep(t, smallConfig(2), false)
	if err := ls.access(0, Load, 0); err != nil {
		t.Fatal(err)
	}
	llc := ls.h.LLC()
	set, way, ok := llc.Lookup(0)
	if !ok {
		t.Fatal("accessed line missing from LLC")
	}
	llc.FillWay(set, way+1, 0, llc.PresenceAt(set, way))
	lockstepError(t, ls.check(), fmt.Sprintf("LLC set %d way %d holds {Addr:0 Valid:true", set, way+1))
}

// TestAuditorDetectsCounterRollback decrements a traffic counter after
// a stream of misses.
func TestAuditorDetectsCounterRollback(t *testing.T) {
	ls := newLockstep(t, smallConfig(2), false)
	for addr := uint64(0); addr < 64<<10; addr += 64 {
		if err := ls.access(0, Load, addr); err != nil {
			t.Fatal(err)
		}
	}
	if ls.h.Traffic.MemoryReads == 0 {
		t.Fatal("stream produced no memory reads")
	}
	ls.h.Traffic.MemoryReads--
	lockstepError(t, ls.check(), "Traffic.MemoryReads")
}

// TestAuditorDetectsConservationViolation fabricates a QBS save with
// no corresponding query.
func TestAuditorDetectsConservationViolation(t *testing.T) {
	ls := newLockstep(t, smallConfig(2), false)
	ls.h.Traffic.QBSSaves++
	lockstepError(t, ls.check(), "Traffic.QBSSaves")
}
