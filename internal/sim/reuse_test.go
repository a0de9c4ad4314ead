package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"tlacache/internal/cli"
	"tlacache/internal/cpu"
	"tlacache/internal/hierarchy"
	"tlacache/internal/replacement"
	"tlacache/internal/statecheck"
	"tlacache/internal/telemetry"
	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

// configMode is a named change to a hierarchy configuration.
type configMode struct {
	name string
	mut  func(*hierarchy.Config)
}

// machineModes are the eight hierarchy configurations the alloc
// regression gates exercise: the inclusive baseline, the three TLA
// policies, the two non-inclusive dispositions, and the two optional
// structures (prefetcher, victim cache). Together they reach every
// Reset path a pooled hierarchy has.
func machineModes() []configMode {
	return []configMode{
		{"baseline-inclusive", func(*hierarchy.Config) {}},
		{"tlh", func(c *hierarchy.Config) { c.TLA = hierarchy.TLATLH }},
		{"eci", func(c *hierarchy.Config) { c.TLA = hierarchy.TLAECI }},
		{"qbs", func(c *hierarchy.Config) { c.TLA = hierarchy.TLAQBS }},
		{"non-inclusive", func(c *hierarchy.Config) { c.Inclusion = hierarchy.NonInclusive }},
		{"exclusive", func(c *hierarchy.Config) { c.Inclusion = hierarchy.Exclusive }},
		{"prefetch", func(c *hierarchy.Config) { c.EnablePrefetch = true }},
		{"victim-cache", func(c *hierarchy.Config) { c.VictimCacheEntries = 32 }},
	}
}

// freshMachine builds a machine outside the pool, so reset-equivalence
// comparisons cannot be perturbed by machines other tests pooled.
func freshMachine(t *testing.T, cfg Config) *machine {
	t.Helper()
	m, err := newMachine(cfg.Hierarchy, cfg.CPU)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runOn drives one run of cfg on m with freshly initialised generators
// and returns the marshaled windowed results plus traffic.
func runOn(t *testing.T, cfg Config, m *machine) []byte {
	t.Helper()
	streams := make([]trace.Generator, cfg.Hierarchy.Cores)
	bs := []string{"sje", "lib", "mcf", "xal"}
	for i := range streams {
		b, err := workload.ByName(bs[i%len(bs)])
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.NewSynthetic(b.Profile, cfg.Seed+uint64(i)*0x9e37)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = g
	}
	if err := runMachine(cfg, m, streams); err != nil {
		t.Fatal(err)
	}
	out := struct {
		Apps    []AppResult
		Traffic hierarchy.Traffic
	}{m.apps, m.h.Traffic}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// resetTo resets m for a run of cfg exactly as acquireMachine does.
func resetTo(m *machine, cfg Config) {
	m.h.Reset(cfg.Hierarchy)
	for _, c := range m.cores {
		c.Reset()
	}
}

// shapeGroups lists configurations by shape. Within a group every
// configuration shares one Config.Shape, so the pool may reset a machine
// that ran any of them for a run of any other; together they set every
// field Shape zeroes to a non-default value. The first group covers the
// TLA policies, the inclusion modes and their options; the second the
// bank occupancy of a banked LLC.
func shapeGroups() [][]configMode {
	return [][]configMode{{
		{"baseline", func(*hierarchy.Config) {}},
		{"tlh-l1", func(c *hierarchy.Config) { c.TLA, c.TLHSources = hierarchy.TLATLH, hierarchy.L1Caches }},
		{"tlh-l2", func(c *hierarchy.Config) { c.TLA, c.TLHSources = hierarchy.TLATLH, hierarchy.L2C }},
		{"tlh-500", func(c *hierarchy.Config) { c.TLA, c.TLHPerMille = hierarchy.TLATLH, 500 }},
		{"eci", func(c *hierarchy.Config) { c.TLA = hierarchy.TLAECI }},
		{"qbs", func(c *hierarchy.Config) { c.TLA = hierarchy.TLAQBS }},
		{"qbs-l1", func(c *hierarchy.Config) { c.TLA, c.QBSProbe = hierarchy.TLAQBS, hierarchy.L1Caches }},
		{"qbs-max2", func(c *hierarchy.Config) { c.TLA, c.QBSMaxQueries = hierarchy.TLAQBS, 2 }},
		{"qbs-modified", func(c *hierarchy.Config) { c.TLA, c.QBSEvictSaved = hierarchy.TLAQBS, true }},
		{"non-inclusive", func(c *hierarchy.Config) { c.Inclusion = hierarchy.NonInclusive }},
		{"exclusive", func(c *hierarchy.Config) { c.Inclusion = hierarchy.Exclusive }},
		{"l2-inclusive-qbs", func(c *hierarchy.Config) { c.L2Inclusive, c.L2QBS = true, true }},
		{"broadcast", func(c *hierarchy.Config) { c.BroadcastInvalidate = true }},
		{"memory-300", func(c *hierarchy.Config) { c.Latency.Memory = 300 }},
	}, {
		{"banked-occupancy-2", func(c *hierarchy.Config) { c.LLCBanks, c.BankOccupancy = 2, 2 }},
		{"banked-occupancy-5", func(c *hierarchy.Config) { c.LLCBanks, c.BankOccupancy = 2, 5 }},
	}}
}

// outputPairs are the cross-configuration pairs whose reused runs
// TestResetEquivalence also compares with fresh runs byte for byte: a
// TLA policy, the exclusive mode and QBS each handing their machine to
// another mode, and a banked LLC changing its occupancy.
var outputPairs = map[string]bool{
	"tlh-l1-then-baseline":                       true,
	"exclusive-then-baseline":                    true,
	"qbs-then-non-inclusive":                     true,
	"banked-occupancy-2-then-banked-occupancy-5": true,
}

// TestResetEquivalence is the reuse-correctness gate behind the machine
// pool. First, for all eight machine modes crossed with all six LLC
// replacement policies, a machine that already ran a full simulation
// and was reset the way acquireMachine resets it must reproduce the
// fresh machine's results byte for byte. Any state that survives
// hierarchy.Reset or cpu.Core.Reset — cache contents, replacement rank
// or set-dueling state, prefetcher tables, memoization, telemetry
// sequence numbers — shows up here as a diff. Second, because the pool
// keys on shape, for every ordered pair (A, B) of configurations of one
// shape, the hierarchy and cores of a machine that ran A and was reset
// to B must equal a fresh B machine's field for field, so nothing A's
// configuration derived survives into B's run either; for the
// outputPairs, B's run on the reset machine must also reproduce a fresh
// B machine's results byte for byte.
func TestResetEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about 500 short simulations")
	}
	kinds := []replacement.Kind{
		replacement.LRU, replacement.NRU, replacement.SRRIP,
		replacement.DIP, replacement.DRRIP,
	}
	for _, mode := range machineModes() {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", mode.name, kind), func(t *testing.T) {
				cfg := quickConfig(2, 8_000)
				mode.mut(&cfg.Hierarchy)
				cfg.Hierarchy.LLCPolicy = kind

				m := freshMachine(t, cfg)
				fresh := runOn(t, cfg, m)
				resetTo(m, cfg)
				rerun := runOn(t, cfg, m)

				if !bytes.Equal(fresh, rerun) {
					t.Errorf("reset machine diverged from fresh run:\n--- fresh ---\n%s\n--- rerun ---\n%s",
						fresh, rerun)
				}
			})
		}
	}

	// The state a reset restores: the interleave scratch is
	// reinitialised by every run.
	type state struct {
		h     *hierarchy.Hierarchy
		cores []*cpu.Core
	}
	for _, group := range shapeGroups() {
		cfgs := make([]Config, len(group))
		fresh := make([]state, len(group))
		for i, mode := range group {
			// Small enough that evictions, back-invalidations and QBS
			// queries happen in both windows.
			cfgs[i] = quickConfig(2, 4_000)
			cfgs[i].Hierarchy.LLCSize = 128 << 10
			cfgs[i].Hierarchy.EnablePrefetch = true
			mode.mut(&cfgs[i].Hierarchy)
			m := freshMachine(t, cfgs[i])
			fresh[i] = state{m.h, m.cores}
		}
		for a := range group {
			for b := range group {
				name := fmt.Sprintf("%s-then-%s", group[a].name, group[b].name)
				t.Run(name, func(t *testing.T) {
					ran := cfgs[a]
					if !outputPairs[name] {
						// A 1,000-instruction run already leaves residue
						// in every field the state comparison covers;
						// only an output comparison needs A's evictions.
						ran.Instructions, ran.Warmup = 1_000, 0
					}
					m := freshMachine(t, ran)
					runOn(t, ran, m)
					resetTo(m, cfgs[b])
					if d := statecheck.Diff(state{m.h, m.cores}, fresh[b]); d != "" {
						t.Fatalf("machine reset from %s differs from a fresh %s machine: %s",
							group[a].name, group[b].name, d)
					}
					if !outputPairs[name] {
						return
					}
					want := runOn(t, cfgs[b], freshMachine(t, cfgs[b]))
					if got := runOn(t, cfgs[b], m); !bytes.Equal(want, got) {
						t.Errorf("machine reset from %s diverged from a fresh %s machine:\n--- fresh ---\n%s\n--- reset ---\n%s",
							group[a].name, group[b].name, want, got)
					}
				})
			}
		}
	}
}

// TestPoolSharesMachinesAcrossPolicies: every policy the command-line
// tools and the daemon offer runs on one geometry, so once a baseline
// run has released its machine, each policy's run must be handed that
// same machine rather than build its own.
func TestPoolSharesMachinesAcrossPolicies(t *testing.T) {
	cfg := quickConfig(2, 1_000)
	cfg.Hierarchy.LLCSize = 512 << 10 // a shape no other test pools
	m, err := acquireMachine(cfg.Hierarchy, cfg.CPU)
	if err != nil {
		t.Fatal(err)
	}
	releaseMachine(m)
	for _, p := range cli.PolicyNames() {
		hc := cfg.Hierarchy
		if err := cli.ApplyPolicy(&hc, p); err != nil {
			t.Fatal(err)
		}
		got, err := acquireMachine(hc, cfg.CPU)
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Errorf("policy %s got a machine other than the baseline's", p)
		}
		releaseMachine(got)
	}
}

// TestPooledRunRepeatability pins the public path the experiment sweeps
// use: repeated RunMix calls with one configuration — the second and
// third of which run on pooled machines and reinitialised pooled
// generators — must return byte-identical results.
func TestPooledRunRepeatability(t *testing.T) {
	cfg := quickConfig(2, 20_000)
	cfg.Hierarchy.TLA = hierarchy.TLAQBS
	mix := workload.Mix{Name: "POOL", Apps: []string{"sje", "mcf"}}

	var first []byte
	for i := 0; i < 3; i++ {
		res, err := RunMix(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Errorf("pooled run %d diverged from the first run:\n--- first ---\n%s\n--- run %d ---\n%s",
				i+1, first, i+1, data)
		}
	}
}

// epochManifest runs one batch covering every boundary the burst-sizing
// logic caps against — sampling intervals, the budget crossing, and a
// finished fast core running past its budget — and returns everything
// observable: results, the interval series, and the telemetry summary.
func epochManifest(t *testing.T, epoch uint64) []byte {
	t.Helper()
	cfg := quickConfig(2, 30_000)
	cfg.Epoch = epoch
	cfg.Hierarchy.TLA = hierarchy.TLAQBS
	// A deliberately awkward divisor so boundaries land mid-epoch.
	cfg.Telemetry = telemetry.NewRecorder(5_003)

	res, err := RunMix(cfg, workload.Mix{Name: "EPOCH", Apps: []string{"sje", "lib"}})
	if err != nil {
		t.Fatal(err)
	}
	out := struct {
		Res       MixResult
		Samples   []telemetry.Sample
		Telemetry telemetry.Summary
	}{res, cfg.Telemetry.Samples(), cfg.Telemetry.Summary()}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEpochInvariance enforces the epoch-batching correctness argument:
// the interleave burst length is a pure execution-efficiency knob, so
// per-instruction bookkeeping (Epoch=1), the default burst, and a burst
// longer than the whole run must all produce byte-identical results and
// sampler time series.
func TestEpochInvariance(t *testing.T) {
	ref := epochManifest(t, 1)
	for _, epoch := range []uint64{0, 64, 1024, 1 << 40} {
		got := epochManifest(t, epoch)
		if !bytes.Equal(ref, got) {
			t.Errorf("Epoch=%d diverges from Epoch=1:\n--- epoch 1 ---\n%s\n--- epoch %d ---\n%s",
				epoch, ref, epoch, got)
		}
	}
}
