package tlacache

// One benchmark per paper artifact. Each BenchmarkTableN/BenchmarkFigureN
// regenerates that table or figure at a reduced instruction budget per
// iteration, so `go test -bench=.` both exercises every experiment
// end-to-end and reports the simulator's cost per artifact. Full-scale
// regeneration (paper-comparable numbers over all 105 workloads) is
// `go run ./cmd/experiments -run all -pairs`.

import (
	"fmt"
	"runtime"
	"testing"

	"tlacache/internal/experiments"
	"tlacache/internal/hierarchy"
	"tlacache/internal/sim"
	"tlacache/internal/telemetry"
	"tlacache/internal/workload"
)

// benchOptions are deliberately small: benchmarks measure harness cost,
// not paper fidelity.
func benchOptions() experiments.Options {
	return experiments.Options{Instructions: 30_000, Warmup: 50_000, Seed: 1}
}

func runArtifact(b *testing.B, name string) {
	b.Helper()
	runner, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOptions()
	// One untimed warmup regeneration populates the simulation pools
	// (machines, generators), so the benchmark reports the steady-state
	// cost per artifact that a sweep's 2nd..Nth cells actually pay.
	if _, err := runner(opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := runner(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// BenchmarkTable1 regenerates the isolation MPKI characterisation.
func BenchmarkTable1(b *testing.B) { runArtifact(b, "table1") }

// BenchmarkTable2 regenerates the workload-mix table.
func BenchmarkTable2(b *testing.B) { runArtifact(b, "table2") }

// BenchmarkFigure2 regenerates the inclusion-mode comparison across
// cache ratios.
func BenchmarkFigure2(b *testing.B) { runArtifact(b, "figure2") }

// BenchmarkFigure5 regenerates the Temporal Locality Hints study.
func BenchmarkFigure5(b *testing.B) { runArtifact(b, "figure5") }

// BenchmarkFigure6 regenerates the Early Core Invalidation study.
func BenchmarkFigure6(b *testing.B) { runArtifact(b, "figure6") }

// BenchmarkFigure7 regenerates the Query Based Selection study
// (variants, query limits, s-curve).
func BenchmarkFigure7(b *testing.B) { runArtifact(b, "figure7") }

// BenchmarkFigure8 regenerates the LLC miss-reduction comparison.
func BenchmarkFigure8(b *testing.B) { runArtifact(b, "figure8") }

// BenchmarkFigure9 regenerates the policy summary on inclusive and
// non-inclusive baselines.
func BenchmarkFigure9(b *testing.B) { runArtifact(b, "figure9") }

// BenchmarkFigure10 regenerates the cache-ratio scalability sweep.
func BenchmarkFigure10(b *testing.B) { runArtifact(b, "figure10") }

// BenchmarkFigure11 regenerates the core-count scalability study.
func BenchmarkFigure11(b *testing.B) { runArtifact(b, "figure11") }

// BenchmarkTLHFraction regenerates the hint-fraction sensitivity study
// of section V-A.
func BenchmarkTLHFraction(b *testing.B) { runArtifact(b, "tlhfraction") }

// BenchmarkVictimCache regenerates the section VI victim-cache
// comparison.
func BenchmarkVictimCache(b *testing.B) { runArtifact(b, "victimcache") }

// BenchmarkModifiedQBS regenerates the footnote 6 modified-QBS study.
func BenchmarkModifiedQBS(b *testing.B) { runArtifact(b, "modifiedqbs") }

// BenchmarkL2Inclusive regenerates the footnote 3 inclusive-L2 study.
func BenchmarkL2Inclusive(b *testing.B) { runArtifact(b, "l2inclusive") }

// BenchmarkLLCReplacement regenerates the footnote 4 replacement-policy
// independence study.
func BenchmarkLLCReplacement(b *testing.B) { runArtifact(b, "llcreplacement") }

// BenchmarkSingleCore regenerates the section VI single-core study.
func BenchmarkSingleCore(b *testing.B) { runArtifact(b, "singlecore") }

// BenchmarkSnoopFilter regenerates the coherence-cost comparison.
func BenchmarkSnoopFilter(b *testing.B) { runArtifact(b, "snoopfilter") }

// BenchmarkDirectory regenerates the presence-directory ablation.
func BenchmarkDirectory(b *testing.B) { runArtifact(b, "directory") }

// BenchmarkRunnerParallel measures one figure regeneration (figure8:
// 12 mixes x 7 specs = 84 independent simulations) at one worker
// versus one worker per CPU — the speedup of the internal/runner
// job-execution engine on real experiment sweeps.
func BenchmarkRunnerParallel(b *testing.B) {
	run, err := experiments.ByName("figure8")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := benchOptions()
			opts.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tables, err := run(opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) == 0 {
					b.Fatal("no tables produced")
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (instructions per second) on the baseline machine, the number that
// bounds every experiment above.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := sim.DefaultConfig(2)
	cfg.Instructions = 100_000
	cfg.Warmup = 0
	mix := workload.Mix{Name: "BENCH", Apps: []string{"sje", "lib"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunMix(cfg, mix); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(2 * cfg.Instructions)) // "bytes" = instructions, for MB/s ~ MI/s
}

// BenchmarkTelemetryOverhead measures what instrumentation costs on a
// QBS run (the policy with the most recorder call sites): "off" is the
// nil-recorder fast path every uninstrumented run takes, "recorder"
// attaches a recorder, and "recorder+sampler" also samples intervals.
// "off" is the configuration the <2% regression budget guards.
func BenchmarkTelemetryOverhead(b *testing.B) {
	base := sim.DefaultConfig(2)
	base.Instructions = 100_000
	base.Warmup = 0
	base.Hierarchy.TLA = hierarchy.TLAQBS
	mix := workload.Mix{Name: "BENCH", Apps: []string{"sje", "lib"}}
	for _, mode := range []string{"off", "recorder", "recorder+sampler"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := base
				switch mode {
				case "recorder":
					cfg.Telemetry = telemetry.NewRecorder(0)
				case "recorder+sampler":
					cfg.Telemetry = telemetry.NewRecorder(10_000)
				}
				if _, err := sim.RunMix(cfg, mix); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQBSOverhead isolates the per-miss cost of QBS victim
// selection against the unmanaged baseline.
func BenchmarkQBSOverhead(b *testing.B) {
	for _, name := range []string{"baseline", "qbs"} {
		name := name
		b.Run(name, func(b *testing.B) {
			cfg := sim.DefaultConfig(2)
			cfg.Instructions = 100_000
			cfg.Warmup = 0
			if name == "qbs" {
				m, err := NewMachine(2, WithPolicy(PolicyQBS), WithBudget(100_000, 0))
				if err != nil {
					b.Fatal(err)
				}
				cfg = m.cfg
			}
			mix := workload.Mix{Name: "BENCH", Apps: []string{"mcf", "lib"}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunMix(cfg, mix); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
