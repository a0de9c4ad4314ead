package sim

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"tlacache/internal/hierarchy"
	"tlacache/internal/telemetry"
	"tlacache/internal/workload"
)

// quickConfig shrinks the budget so integration tests stay fast while
// still exercising warmup and steady state.
func quickConfig(cores int, instructions uint64) Config {
	cfg := DefaultConfig(cores)
	cfg.Instructions = instructions
	cfg.Warmup = 2 * instructions
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig(2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Instructions = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero budget accepted")
	}
	bad = cfg
	bad.Hierarchy.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad hierarchy accepted")
	}
	bad = cfg
	bad.CPU.Width = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad cpu accepted")
	}
}

func TestRunMixRejectsWrongArity(t *testing.T) {
	cfg := quickConfig(2, 1000)
	if _, err := RunMix(cfg, workload.Mix{Name: "ONE", Apps: []string{"dea"}}); err == nil {
		t.Error("1-app mix accepted on 2 cores")
	}
	if _, err := RunMix(cfg, workload.Mix{Name: "BAD", Apps: []string{"dea", "nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunMixBasics(t *testing.T) {
	cfg := quickConfig(2, 50_000)
	res, err := RunMix(cfg, workload.Mix{Name: "T", Apps: []string{"dea", "mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
	for i, a := range res.Apps {
		if a.Instructions != cfg.Instructions {
			t.Errorf("app %d instructions = %d", i, a.Instructions)
		}
		if a.Cycles == 0 || a.IPC <= 0 || a.IPC > 4 {
			t.Errorf("app %d: cycles=%d ipc=%v", i, a.Cycles, a.IPC)
		}
		if a.L1I.Accesses != cfg.Instructions {
			t.Errorf("app %d L1I accesses = %d, want %d (one fetch per instruction)",
				i, a.L1I.Accesses, cfg.Instructions)
		}
	}
	if res.Throughput != res.Apps[0].IPC+res.Apps[1].IPC {
		t.Error("throughput is not the IPC sum")
	}
	// The CCF app (dea) must run much faster than the thrashing mcf.
	if res.Apps[0].IPC < 2*res.Apps[1].IPC {
		t.Errorf("dea IPC %.2f not >> mcf IPC %.2f", res.Apps[0].IPC, res.Apps[1].IPC)
	}
}

func TestRunMixDeterministic(t *testing.T) {
	cfg := quickConfig(2, 30_000)
	mix := workload.Mix{Name: "D", Apps: []string{"sje", "lib"}}
	a, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if a.Traffic != b.Traffic || a.Throughput != b.Throughput {
		t.Fatal("identical runs diverged")
	}
	for i := range a.Apps {
		if a.Apps[i] != b.Apps[i] {
			t.Fatalf("app %d diverged", i)
		}
	}
}

func TestSameBenchmarkTwiceUsesDistinctSeeds(t *testing.T) {
	cfg := quickConfig(2, 30_000)
	res, err := RunMix(cfg, workload.Mix{Name: "HOMO", Apps: []string{"mcf", "mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	// Address spaces are disjoint, so the two instances compete but
	// never share lines; both must make progress.
	if res.Apps[0].IPC <= 0 || res.Apps[1].IPC <= 0 {
		t.Fatal("homogeneous mix stalled")
	}
}

func TestRunIsolation(t *testing.T) {
	cfg := quickConfig(2, 50_000)
	b, err := workload.ByName("dea")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunIsolation(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	// A CCF app in isolation: low L2 MPKI (a little compulsory-miss
	// residue remains at this short window), high IPC.
	if res.L2MPKI > 3 {
		t.Errorf("dea isolated L2 MPKI = %.2f, want < 3", res.L2MPKI)
	}
	if res.IPC < 2 {
		t.Errorf("dea isolated IPC = %.2f, want > 2", res.IPC)
	}
}

// TestInclusionVictimsAppearAndQBSRemovesThem is the paper's core
// claim at integration scale: a CCF+LLCT mix on the inclusive baseline
// produces inclusion victims; QBS eliminates nearly all of them and
// recovers throughput comparable to non-inclusion.
func TestInclusionVictimsAppearAndQBSRemovesThem(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	mix := workload.Mix{Name: "CCF+LLCT", Apps: []string{"sje", "lib"}}
	const budget = 400_000

	base := quickConfig(2, budget)
	base.Warmup = 1_200_000 // let lib's stream fill the 2MB LLC
	baseRes, err := RunMix(base, mix)
	if err != nil {
		t.Fatal(err)
	}
	if baseRes.InclusionVictims == 0 {
		t.Fatal("inclusive baseline produced no inclusion victims on a CCF+LLCT mix")
	}

	qbs := base
	qbs.Hierarchy.TLA = hierarchy.TLAQBS
	qbsRes, err := RunMix(qbs, mix)
	if err != nil {
		t.Fatal(err)
	}
	if qbsRes.InclusionVictims*5 > baseRes.InclusionVictims {
		t.Errorf("QBS left %d/%d inclusion victims", qbsRes.InclusionVictims, baseRes.InclusionVictims)
	}

	noninc := base
	noninc.Hierarchy.Inclusion = hierarchy.NonInclusive
	nonincRes, err := RunMix(noninc, mix)
	if err != nil {
		t.Fatal(err)
	}

	if qbsRes.Throughput < baseRes.Throughput {
		t.Errorf("QBS throughput %.3f below baseline %.3f", qbsRes.Throughput, baseRes.Throughput)
	}
	if nonincRes.Throughput < baseRes.Throughput {
		t.Errorf("non-inclusive throughput %.3f below baseline %.3f", nonincRes.Throughput, baseRes.Throughput)
	}
	// QBS ~ non-inclusive (within a generous band at this budget).
	if math.Abs(qbsRes.Throughput-nonincRes.Throughput)/nonincRes.Throughput > 0.10 {
		t.Errorf("QBS %.3f vs non-inclusive %.3f differ by >10%%", qbsRes.Throughput, nonincRes.Throughput)
	}
	// Miss reduction: QBS must cut the mix's LLC misses vs baseline.
	if qbsRes.LLCMisses >= baseRes.LLCMisses {
		t.Errorf("QBS LLC misses %d not below baseline %d", qbsRes.LLCMisses, baseRes.LLCMisses)
	}
}

// TestSamplerVictimColumnSumsToAggregate is the telemetry contract the
// interval CSVs rely on: the per-interval inclusion-victim deltas sum
// exactly to the run's windowed aggregate, for any sampling interval —
// dividing the budget evenly, leaving a partial final interval, or
// larger than the whole budget.
func TestSamplerVictimColumnSumsToAggregate(t *testing.T) {
	mix := workload.Mix{Name: "CCF+LLCT", Apps: []string{"sje", "lib"}}
	for _, every := range []uint64{10_000, 17_000, 300_000} {
		cfg := quickConfig(2, 100_000)
		cfg.Warmup = 400_000
		cfg.Telemetry = telemetry.NewRecorder(every)
		res, err := RunMix(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		samples := cfg.Telemetry.Samples()
		if len(samples) == 0 {
			t.Fatalf("every=%d: no samples", every)
		}
		var got uint64
		for _, s := range samples {
			got += s.InclusionVictims
		}
		if got != res.InclusionVictims {
			t.Errorf("every=%d: sample victims sum to %d, aggregate is %d",
				every, got, res.InclusionVictims)
		}
		// Every core's last sample lands exactly on the budget.
		last := map[int]uint64{}
		for _, s := range samples {
			last[s.Core] = s.Instructions
		}
		for core, instr := range last {
			if instr != cfg.Instructions {
				t.Errorf("every=%d: core %d final sample at %d, want %d",
					every, core, instr, cfg.Instructions)
			}
		}
		// Occupancy is a fraction of LLC lines.
		for _, s := range samples {
			if s.LLCOccupancy < 0 || s.LLCOccupancy > 1 {
				t.Fatalf("every=%d: occupancy %v out of [0,1]", every, s.LLCOccupancy)
			}
		}
	}
}

// TestProbeObservesMeasurementWindow attaches a recorder and checks its
// summary counts equal the run's Traffic counters: both cover the
// measurement window including post-budget execution, and neither the
// long warmup's events nor a missing end-of-run Finish may show.
func TestProbeObservesMeasurementWindow(t *testing.T) {
	for _, tla := range []hierarchy.TLAPolicy{hierarchy.TLAQBS, hierarchy.TLAECI, hierarchy.TLATLH} {
		cfg := quickConfig(2, 60_000)
		cfg.Warmup = 400_000
		cfg.Hierarchy.LLCSize = 256 << 10 // small enough to evict in both windows
		cfg.Hierarchy.TLA = tla
		cfg.Telemetry = telemetry.NewRecorder(0)
		res, err := RunMix(cfg, workload.Mix{Name: "Q", Apps: []string{"sje", "lib"}})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Traffic
		want := map[string]uint64{
			"back_invalidate": tr.BackInvalidates, "eci_invalidate": tr.ECISent,
			"qbs_query": tr.QBSQueries, "qbs_save": tr.QBSSaves, "tlh_hint": tr.TLHSent,
		}
		sum := cfg.Telemetry.Summary()
		for name, n := range want {
			if sum.Events[name] != n {
				t.Errorf("%v: %s = %d, traffic counter = %d", tla, name, sum.Events[name], n)
			}
		}
		// The recorder's own QBS observations cover the same window.
		if d := sum.QBSQueryDepth; (d == nil) != (tr.QBSQueries == 0) || d != nil && d.Sum != tr.QBSQueries {
			t.Errorf("%v: QBS depth histogram %+v, want sum = %d queries", tla, d, tr.QBSQueries)
		}
		if tr.BackInvalidates == 0 || tr.ECISent+tr.QBSQueries+tr.TLHSent == 0 {
			t.Errorf("%v: window produced no TLA traffic: %+v", tla, tr)
		}
	}
}

// TestTelemetryDoesNotPerturbResults is determinism across
// instrumentation: attaching a recorder that samples and traces
// decisions must not change a single statistic of the simulated
// machine.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	cfg := quickConfig(2, 50_000)
	mix := workload.Mix{Name: "D", Apps: []string{"sje", "lib"}}
	plain, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = telemetry.NewRecorder(5_000)
	cfg.Telemetry.Decisions = &telemetry.DecisionLog{}
	instrumented, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Traffic != instrumented.Traffic || plain.Throughput != instrumented.Throughput {
		t.Fatal("telemetry changed simulation results")
	}
	for i := range plain.Apps {
		if plain.Apps[i] != instrumented.Apps[i] {
			t.Fatalf("app %d diverged under telemetry", i)
		}
	}
}

// TestHomogeneousCCFMixSeesNoBenefit mirrors the paper's observation
// that CCF+CCF mixes have no inclusion-victim problem.
func TestHomogeneousCCFMixSeesNoBenefit(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	mix := workload.Mix{Name: "CCF+CCF", Apps: []string{"dea", "per"}}
	cfg := quickConfig(2, 200_000)
	res, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	perKI := float64(res.InclusionVictims) / float64(2*cfg.Instructions/1000)
	if perKI > 0.5 {
		t.Errorf("CCF+CCF mix suffered %.2f inclusion victims per KI", perKI)
	}
}

// TestNextCoreMatchesTwoPassPick pins the one-pass key pick against the
// two-pass scan it replaced: the lowest clock (lowest index on ties),
// then the runner-up among the rest. The burst-end test on the key,
// clock<<6|c > runner, must agree with the two-part comparison against
// the runner-up's clock and index. Clocks are drawn from narrow spans
// so ties are common, near 0 and just below maxClock.
func TestNextCoreMatchesTwoPassPick(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for n := 1; n <= 64; n++ {
		clocks := make([]uint64, n)
		for trial := 0; trial < 200; trial++ {
			var base uint64
			if trial%2 == 1 {
				base = maxClock - 64 - rng.Uint64N(maxClock/2)
			}
			span := uint64(1) << rng.IntN(6)
			for i := range clocks {
				clocks[i] = base + rng.Uint64N(span)
			}
			want := 0
			for i := 1; i < n; i++ {
				if clocks[i] < clocks[want] {
					want = i
				}
			}
			runnerVal, runnerIdx := ^uint64(0), n
			for i := 0; i < n; i++ {
				if i != want && clocks[i] < runnerVal {
					runnerVal, runnerIdx = clocks[i], i
				}
			}
			c, runner := nextCore(clocks)
			if c != want {
				t.Fatalf("n=%d clocks %v: nextCore picked %d, want %d", n, clocks, c, want)
			}
			for _, cy := range []uint64{clocks[c], clocks[c] + 1, runnerVal - 1, runnerVal, runnerVal + 1} {
				if cy < clocks[c] || cy >= maxClock {
					continue
				}
				got := cy<<6|uint64(c) > runner
				if ref := cy > runnerVal || (cy == runnerVal && c > runnerIdx); got != ref {
					t.Fatalf("n=%d clocks %v: core %d at clock %d yields %v, want %v",
						n, clocks, c, cy, got, ref)
				}
			}
		}
	}
}

// TestClockGuardFailsRun forces a core clock past 2^58, where keys
// would lose the clock's top bits, with a memory latency of 2^52: 64
// serialised misses get there, while this short run's clocks stay below
// 2^64, so without the guard it completes misordered and the test fails
// fast instead of hanging on wrapped clocks. The run must fail.
func TestClockGuardFailsRun(t *testing.T) {
	cfg := quickConfig(2, 1000)
	cfg.Hierarchy.Latency.Memory = maxClock / 64
	_, err := RunMix(cfg, workload.Mix{Name: "GUARD", Apps: []string{"sje", "lib"}})
	if err == nil || !strings.Contains(err.Error(), "2^58") {
		t.Fatalf("RunMix error = %v, want the 2^58 clock guard", err)
	}
}
