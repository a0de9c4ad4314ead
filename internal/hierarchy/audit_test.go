package hierarchy

import (
	"strings"
	"testing"
)

// driveAudited runs a deterministic access stream against h, auditing
// every `every` accesses, and returns the first audit error.
func driveAudited(h *Hierarchy, a *Auditor, accesses, every int) error {
	x := uint64(0x2545F4914F6CDD1D)
	for i := 0; i < accesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.Access(int(x%2), AccessKind(x>>8)%3, (x>>16)%(64<<10))
		if (i+1)%every == 0 {
			if err := a.Audit(); err != nil {
				return err
			}
		}
	}
	return a.Audit()
}

// TestAuditorCleanAcrossPolicies runs the full audit (structural
// invariants, cache consistency, monotonicity, conservation) throughout
// stressed runs of every policy and inclusion mode: a correct hierarchy
// must never trip it.
func TestAuditorCleanAcrossPolicies(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"baseline", func(*Config) {}},
		{"tlh", func(c *Config) { c.TLA = TLATLH }},
		{"eci", func(c *Config) { c.TLA = TLAECI }},
		{"qbs", func(c *Config) { c.TLA = TLAQBS }},
		{"non-inclusive", func(c *Config) { c.Inclusion = NonInclusive }},
		{"exclusive", func(c *Config) { c.Inclusion = Exclusive }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(2)
			cfg.EnablePrefetch = true
			tc.mut(&cfg)
			h := MustNew(cfg)
			a := NewAuditor(h)
			if err := driveAudited(h, a, 20_000, 500); err != nil {
				t.Fatal(err)
			}
			if a.Audits == 0 {
				t.Fatal("no audits completed")
			}
		})
	}
}

// corruption cases: each injects one specific fault into a healthy
// hierarchy and expects the auditor to name it.
func auditError(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("audit accepted corrupted hierarchy, want error mentioning %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("audit error %q does not mention %q", err, want)
	}
}

// TestAuditorDetectsInclusionBreach plants a core-cache line the LLC
// does not hold — the exact corruption a back-invalidation bug would
// produce.
func TestAuditorDetectsInclusionBreach(t *testing.T) {
	h := MustNew(smallConfig(2))
	a := NewAuditor(h)
	h.L1D(0).Fill(0x4_0000, 0)
	auditError(t, a.Audit(), "inclusion violated")
}

// TestAuditorDetectsDuplicateLine plants the same address in two ways
// of one LLC set.
func TestAuditorDetectsDuplicateLine(t *testing.T) {
	h := MustNew(smallConfig(2))
	h.Access(0, Load, 0)
	llc := h.LLC()
	set, way, ok := llc.Lookup(0)
	if !ok {
		t.Fatal("accessed line missing from LLC")
	}
	llc.FillWay(set, (way+1)%llc.Config().Assoc, 0, llc.Presence(0))
	a := NewAuditor(h)
	auditError(t, a.Audit(), "duplicated")
}

// TestAuditorDetectsCounterRollback decrements a traffic counter
// between audits.
func TestAuditorDetectsCounterRollback(t *testing.T) {
	h := MustNew(smallConfig(2))
	for addr := uint64(0); addr < 64<<10; addr += 64 {
		h.Access(0, Load, addr)
	}
	if h.Traffic.MemoryReads == 0 {
		t.Fatal("stream produced no memory reads")
	}
	a := NewAuditor(h)
	h.Traffic.MemoryReads--
	auditError(t, a.Audit(), "went backwards")
}

// TestAuditorDetectsConservationViolation fabricates a QBS save with
// no corresponding query.
func TestAuditorDetectsConservationViolation(t *testing.T) {
	h := MustNew(smallConfig(2))
	a := NewAuditor(h)
	h.Traffic.QBSSaves++
	auditError(t, a.Audit(), "conservation violated")
}
