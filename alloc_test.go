package tlacache

// Steady-state allocation proofs for the simulator hot path. The
// per-instruction loop — trace generation, ifetch, data access, core
// timing — must not allocate once caches are warm: at hundreds of
// millions of simulated instructions per experiment, even one small
// allocation per access dominates runtime with GC work. These tests pin
// that property per machine mode so a regression names the mode that
// broke it.

import (
	"testing"

	"tlacache/internal/cpu"
	"tlacache/internal/hierarchy"
	"tlacache/internal/sim"
	"tlacache/internal/statecheck"
	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

// stepper replicates the simulator's per-instruction work (generator
// Next, ifetch — the memo check, then the full access on a memo miss,
// as the run loop does — optional data access, core timing) outside
// the run loop, so tests can count allocations per instruction
// directly.
type stepper struct {
	h      *hierarchy.Hierarchy
	gens   []*trace.Synthetic
	cores  []*cpu.Core
	in     trace.Instr
	hitLat uint64
}

func newStepper(tb testing.TB, mutate func(*hierarchy.Config)) *stepper {
	tb.Helper()
	base := sim.DefaultConfig(2)
	hcfg := base.Hierarchy
	if mutate != nil {
		mutate(&hcfg)
	}
	h, err := hierarchy.New(hcfg)
	if err != nil {
		tb.Fatal(err)
	}
	s := &stepper{h: h, hitLat: hcfg.Latency.L1}
	for i, app := range []string{"sje", "lib"} {
		b, err := workload.ByName(app)
		if err != nil {
			tb.Fatal(err)
		}
		g, err := b.NewGenerator(uint64(i + 1))
		if err != nil {
			tb.Fatal(err)
		}
		core, err := cpu.New(base.CPU)
		if err != nil {
			tb.Fatal(err)
		}
		s.gens = append(s.gens, g)
		s.cores = append(s.cores, core)
	}
	return s
}

// step simulates n instructions round-robin across the cores.
func (s *stepper) step(n int) {
	for i := 0; i < n; i++ {
		c := i % len(s.gens)
		s.gens[c].Next(&s.in)
		now := s.cores[c].Cycle()
		fetchLat := s.hitLat
		if !s.h.IFetchMemoHit(c, s.in.PC) {
			fetchLat = s.h.AccessAt(c, hierarchy.IFetch, s.in.PC, now).Latency
		}
		var memLat uint64
		if s.in.Op != trace.OpNone {
			kind := hierarchy.Load
			if s.in.Op == trace.OpStore {
				kind = hierarchy.Store
			}
			memLat = s.h.AccessAt(c, kind, s.in.Addr, now).Latency
		}
		s.cores[c].Instr(fetchLat, memLat, s.hitLat)
	}
}

// TestAccessSteadyStateZeroAllocs warms every machine mode the paper's
// experiments use for 200,000 instructions and then requires exactly
// zero heap allocations over the next 200,000, counted with
// statecheck.Allocs rather than a per-instruction mean, which truncates
// a slice that grows a little at a time to zero. These are paper-size
// machines, whose 2 MB LLC sees few replacement events once warm; the
// small machines of the hierarchy package's allocation gate
// (TestWarmMachinesAllocateNothing) exercise those paths far more
// often.
func TestAccessSteadyStateZeroAllocs(t *testing.T) {
	modes := []struct {
		name   string
		mutate func(*hierarchy.Config)
	}{
		{"baseline-inclusive", nil},
		{"tlh", func(c *hierarchy.Config) { c.TLA = hierarchy.TLATLH }},
		{"eci", func(c *hierarchy.Config) { c.TLA = hierarchy.TLAECI }},
		{"qbs", func(c *hierarchy.Config) { c.TLA = hierarchy.TLAQBS }},
		{"non-inclusive", func(c *hierarchy.Config) { c.Inclusion = hierarchy.NonInclusive }},
		{"exclusive", func(c *hierarchy.Config) { c.Inclusion = hierarchy.Exclusive }},
		{"prefetch", func(c *hierarchy.Config) { c.EnablePrefetch = true }},
		{"victim-cache", func(c *hierarchy.Config) { c.VictimCacheEntries = 32 }},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			const window = 200_000
			s := newStepper(t, m.mutate)
			s.step(window) // fill caches, detectors, and internal buffers
			if c := statecheck.Allocs(func() { s.step(window) }); c.Mallocs != 0 {
				t.Errorf("steady state made %v\nin %d instructions, want 0", c, window)
			}
		})
	}
}

// BenchmarkAccessSteadyState reports the warm per-instruction cost of
// the full simulation step (generator + ifetch + data access + core
// timing). With -benchmem its allocs/op column is the tentpole's
// zero-allocation claim in CI-checkable form.
func BenchmarkAccessSteadyState(b *testing.B) {
	s := newStepper(b, nil)
	s.step(200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(1)
	}
}

// BenchmarkDecisionTraceOff pins the decision hook's disabled cost:
// with no telemetry recorder attached, the QBS eviction path — the mode
// with the most decision-snapshot work to skip — must run
// allocation-free and at baseline speed. The nil-recorder guard is a
// single predictable branch; with -benchmem the allocs/op column is
// the CI gate.
func BenchmarkDecisionTraceOff(b *testing.B) {
	s := newStepper(b, func(c *hierarchy.Config) { c.TLA = hierarchy.TLAQBS })
	s.step(200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(1)
	}
}
