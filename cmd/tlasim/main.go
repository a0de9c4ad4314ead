// Command tlasim runs one workload mix on one machine configuration and
// prints a detailed report: per-application IPC and MPKI, hierarchy
// traffic, and inclusion-victim counts. It is the interactive
// counterpart to cmd/experiments.
//
// Usage:
//
//	tlasim -mix sje,lib -policy qbs
//	tlasim -mix MIX_10 -policy baseline -llc 1MB
//	tlasim -mix dea,mcf,sje,lib -policy non-inclusive
//	tlasim -mix sje,lib -policy baseline,eci,qbs,non-inclusive
//	tlasim -trace a.tlat,b.tlat -policy qbs      # replay recorded traces
//	tlasim -profile mine.json,mine.json          # custom JSON workloads
//
// -mix takes either a Table II mix name (MIX_00 … MIX_11) or a
// comma-separated benchmark list (one per core). -trace replays binary
// traces captured with cmd/tracegen; -profile loads trace.Profile JSON
// definitions. The three sources are mutually exclusive.
//
// -policy accepts a comma-separated list; multiple policies run the
// same workload under each (fanned out over -workers parallel workers)
// and append a comparison summary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"

	"tlacache/internal/cli"
	"tlacache/internal/hierarchy"
	"tlacache/internal/runner"
	"tlacache/internal/sim"
	"tlacache/internal/telemetry"
	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tlasim: ")
	mixArg := flag.String("mix", "", "Table II mix name or comma-separated benchmark tags")
	traceArg := flag.String("trace", "", "comma-separated TLAT1 trace files, one per core")
	profileArg := flag.String("profile", "", "comma-separated profile JSON files, one per core")
	policy := flag.String("policy", "baseline",
		"policy, or comma-separated policies to compare ("+strings.Join(cli.PolicyNames(), " | ")+")")
	jsonOut := flag.Bool("json", false, "emit the result as JSON")
	llc := flag.String("llc", "", "LLC size override, e.g. 1MB, 4MB (default 1MB per core)")
	n := flag.Uint64("n", 1_000_000, "measured instructions per core")
	w := flag.Uint64("w", 1_500_000, "warmup instructions per core")
	seed := flag.Uint64("seed", 1, "workload seed")
	workers := flag.Int("workers", 0, "parallel workers when comparing policies (0 = one per CPU)")
	noPrefetch := flag.Bool("no-prefetch", false, "disable the stream prefetcher")
	listBench := flag.Bool("list", false, "list benchmarks and mixes, then exit")
	interval := flag.Uint64("interval", 0,
		"sample per-core IPC/MPKI/inclusion-victim time series every N instructions (0 = off)")
	telemetryOut := flag.String("telemetry-out", "tlasim-intervals",
		"path prefix for -interval output; writes <prefix>.csv and <prefix>.jsonl (suffix -<policy> when comparing)")
	decisionTrace := flag.String("decision-trace", "",
		"record every LLC eviction decision to this file (.jsonl extension = JSON lines, else binary TLAD1; analyze with cmd/tlatrace); -<policy> inserted before the extension when comparing")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof and expvar on this address during the run, e.g. localhost:6060")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(cli.Version())
		return
	}
	if *debugAddr != "" {
		addr, _, err := telemetry.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug server: http://%s/debug/pprof/ and http://%s/debug/vars", addr, addr)
	}

	if *listBench {
		fmt.Println("benchmarks:")
		for _, b := range workload.All() {
			fmt.Printf("  %-4s %-16s %s\n", b.Name, b.FullName, b.Category)
		}
		fmt.Println("mixes:")
		for _, m := range workload.TableIIMixes() {
			fmt.Printf("  %-7s %-9s %s\n", m.Name, strings.Join(m.Apps, ","), m.Categories())
		}
		return
	}

	sources := 0
	for _, s := range []string{*mixArg, *traceArg, *profileArg} {
		if s != "" {
			sources++
		}
	}
	if sources > 1 {
		log.Fatal("-mix, -trace, and -profile are mutually exclusive")
	}
	if sources == 0 {
		*mixArg = "sje,lib"
	}

	// Determine the core count from the chosen workload source. Stream
	// sources are loaded as factories: each policy job gets its own
	// generator instances, so parallel comparison runs never share
	// mutable stream state.
	var mix workload.Mix
	var makeStreams func() ([]trace.Generator, error)
	var cores int
	var err error
	switch {
	case *traceArg != "":
		if makeStreams, cores, err = traceFactory(strings.Split(*traceArg, ",")); err != nil {
			log.Fatal(err)
		}
	case *profileArg != "":
		if makeStreams, cores, err = profileFactory(strings.Split(*profileArg, ","), *seed); err != nil {
			log.Fatal(err)
		}
	default:
		if mix, err = cli.ResolveMix(*mixArg); err != nil {
			log.Fatal(err)
		}
		cores = len(mix.Apps)
	}

	policies := strings.Split(*policy, ",")
	for i := range policies {
		policies[i] = strings.TrimSpace(policies[i])
	}

	baseCfg := sim.DefaultConfig(cores)
	baseCfg.Instructions = *n
	baseCfg.Warmup = *w
	baseCfg.Seed = *seed
	baseCfg.Hierarchy.EnablePrefetch = !*noPrefetch
	if *llc != "" {
		size, err := cli.ParseSize(*llc)
		if err != nil {
			log.Fatal(err)
		}
		baseCfg.Hierarchy.LLCSize = size
	}

	// One job per policy; a single policy degenerates to one job. When
	// a flag needs telemetry, every job gets its own recorder so
	// parallel comparison runs never share telemetry state.
	type outcome struct {
		Policy    string              `json:"policy"`
		Config    sim.Config          `json:"-"`
		Result    sim.MixResult       `json:"result"`
		Recorder  *telemetry.Recorder `json:"-"`
		Telemetry *telemetry.Summary  `json:"telemetry,omitempty"`
	}
	jobs := make([]runner.Job[outcome], len(policies))
	for i, p := range policies {
		p := p
		cfg := baseCfg
		if err := cli.ApplyPolicy(&cfg.Hierarchy, p); err != nil {
			log.Fatal(err)
		}
		jobs[i] = runner.Job[outcome]{
			Name: "policy/" + p,
			Work: uint64(cores) * (cfg.Warmup + cfg.Instructions),
			Run: func(context.Context) (out outcome, err error) {
				out = outcome{Policy: p, Config: cfg}
				if *interval > 0 || *decisionTrace != "" {
					out.Recorder = telemetry.NewRecorder(*interval)
					cfg.Telemetry = out.Recorder
				}
				if *decisionTrace != "" {
					path := decisionTracePath(*decisionTrace, p, len(policies) > 1)
					f, ferr := os.Create(path)
					if ferr != nil {
						return out, ferr
					}
					meta := hierarchy.DecisionMetaFor(cfg.Hierarchy)
					var sink interface {
						telemetry.DecisionTracer
						Count() uint64
						Flush() error
					}
					if strings.HasSuffix(path, ".jsonl") {
						sink, ferr = telemetry.NewDecisionJSONLWriter(f, meta)
					} else {
						sink, ferr = telemetry.NewDecisionWriter(f, meta)
					}
					if ferr != nil {
						f.Close()
						return out, ferr
					}
					out.Recorder.Decisions = sink
					defer func() {
						if ferr := sink.Flush(); ferr != nil && err == nil {
							err = ferr
						}
						if cerr := f.Close(); cerr != nil && err == nil {
							err = cerr
						}
						if err == nil {
							log.Printf("decision trace: wrote %s (%d decisions)", path, sink.Count())
						}
					}()
				}
				// Sampled runs report the telemetry summary.
				if *interval > 0 {
					defer func() {
						s := out.Recorder.Summary()
						out.Telemetry = &s
					}()
				}
				switch {
				case makeStreams != nil:
					var streams []trace.Generator
					if streams, err = makeStreams(); err != nil {
						return out, err
					}
					out.Result, err = sim.RunGenerators(cfg, streams)
				default:
					out.Result, err = sim.RunMix(cfg, mix)
				}
				if err != nil {
					return out, fmt.Errorf("policy %s: %w", p, err)
				}
				return out, nil
			},
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var rep *runner.Reporter
	if len(policies) > 1 {
		rep = runner.NewReporter(os.Stderr)
	}
	results, err := runner.Run(ctx, runner.Config{Workers: *workers, Reporter: rep}, jobs)
	if err != nil {
		log.Fatal(err)
	}
	if err := runner.FirstError(results); err != nil {
		log.Fatal(err)
	}

	if *interval > 0 {
		for _, r := range results {
			prefix := *telemetryOut
			if len(results) > 1 {
				prefix += "-" + r.Value.Policy
			}
			if err := r.Value.Recorder.WritePair(prefix); err != nil {
				log.Fatal(err)
			}
			log.Printf("telemetry: wrote %s.csv and %s.jsonl (%d samples)",
				prefix, prefix, len(r.Value.Recorder.Samples()))
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if len(results) == 1 {
			// The result's fields stay at the top level, as without
			// -interval, beside the sampled run's telemetry.
			out := results[0].Value
			if err := enc.Encode(struct {
				sim.MixResult
				Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
			}{out.Result, out.Telemetry}); err != nil {
				log.Fatal(err)
			}
			return
		}
		outs := make([]outcome, len(results))
		for i, r := range results {
			outs[i] = r.Value
		}
		if err := enc.Encode(outs); err != nil {
			log.Fatal(err)
		}
		return
	}

	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		report(r.Value.Config, r.Value.Result)
		if r.Value.Telemetry != nil {
			telemetryReport(*r.Value.Telemetry)
		}
	}
	if len(results) > 1 {
		fmt.Println()
		summary := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(summary, "policy\tthroughput\tvs first\tLLC misses\tincl.victims")
		base := results[0].Value.Result.Throughput
		for _, r := range results {
			res := r.Value.Result
			rel := 0.0
			if base > 0 {
				rel = res.Throughput / base
			}
			fmt.Fprintf(summary, "%s\t%.3f\t%+.1f%%\t%d\t%d\n",
				r.Value.Policy, res.Throughput, 100*(rel-1), res.LLCMisses, res.InclusionVictims)
		}
		summary.Flush()
	}
}

// decisionTracePath derives one policy's decision-trace path: when
// comparing, the policy name is inserted before the extension so
// parallel jobs never write to the same file.
func decisionTracePath(base, policy string, comparing bool) string {
	if !comparing {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + policy + ext
}

// traceFactory loads TLAT1 files once and returns a factory minting
// fresh looping replay generators over the shared immutable records.
func traceFactory(paths []string) (func() ([]trace.Generator, error), int, error) {
	records := make([][]trace.Instr, len(paths))
	names := make([]string, len(paths))
	for i, path := range paths {
		path = strings.TrimSpace(path)
		names[i] = path
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		r, err := trace.NewReader(f)
		if err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		recs, err := r.ReadAll()
		f.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		records[i] = recs
	}
	return func() ([]trace.Generator, error) {
		out := make([]trace.Generator, len(records))
		for i := range records {
			var err error
			if out[i], err = trace.NewReplay(names[i], records[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", names[i], err)
			}
		}
		return out, nil
	}, len(paths), nil
}

// profileFactory loads profile JSON files once and returns a factory
// minting fresh synthetic generators with the same seeds.
func profileFactory(paths []string, seed uint64) (func() ([]trace.Generator, error), int, error) {
	profiles := make([]trace.Profile, len(paths))
	names := make([]string, len(paths))
	for i, path := range paths {
		path = strings.TrimSpace(path)
		names[i] = path
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		p, err := trace.LoadProfile(f)
		f.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		profiles[i] = p
	}
	return func() ([]trace.Generator, error) {
		out := make([]trace.Generator, len(profiles))
		for i := range profiles {
			var err error
			if out[i], err = trace.NewSynthetic(profiles[i], seed+uint64(i)*0x9e37); err != nil {
				return nil, fmt.Errorf("%s: %w", names[i], err)
			}
		}
		return out, nil
	}, len(paths), nil
}

// telemetryReport prints the telemetry summary collected alongside a run:
// event counts plus the QBS query-depth and ECI rescue-distance
// histograms when the policy produced them.
func telemetryReport(s telemetry.Summary) {
	if len(s.Events) == 0 && s.QBSQueryDepth == nil && s.ECIRescueDistance == nil {
		return
	}
	fmt.Println("\nprobe events:")
	names := make([]string, 0, len(s.Events))
	for name := range s.Events {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, name := range names {
		fmt.Fprintf(tw, "  %s\t%d\n", name, s.Events[name])
	}
	tw.Flush()
	if h := s.QBSQueryDepth; h != nil {
		fmt.Printf("QBS query depth      mean %.2f, p50 %.0f, p99 %.0f, max %d\n",
			h.Mean, h.P50, h.P99, h.Max)
	}
	if h := s.ECIRescueDistance; h != nil {
		fmt.Printf("ECI rescue distance  mean %.1f, p50 %.0f, p99 %.0f, max %d\n",
			h.Mean, h.P50, h.P99, h.Max)
	}
}

func report(cfg sim.Config, res sim.MixResult) {
	h := cfg.Hierarchy
	fmt.Printf("machine: %d cores, LLC %dKB %d-way %s (%s), policy %s, prefetch %v\n",
		h.Cores, h.LLCSize>>10, h.LLCAssoc, h.LLCPolicy, h.Inclusion, h.TLA, h.EnablePrefetch)
	fmt.Printf("mix %s: %s (%s)\n\n", res.Mix.Name, strings.Join(res.Mix.Apps, ","), res.Mix.Categories())

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "core\tbench\tIPC\tL1 MPKI\tL2 MPKI\tLLC MPKI\tincl.victims")
	for i, a := range res.Apps {
		fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.2f\t%.2f\t%.2f\t%d\n",
			i, a.Benchmark, a.IPC, a.L1MPKI, a.L2MPKI, a.LLCMPKI, a.InclusionVictims)
	}
	tw.Flush()

	t := res.Traffic
	fmt.Printf("\nthroughput           %.3f\n", res.Throughput)
	fmt.Printf("demand LLC misses    %d\n", res.LLCMisses)
	fmt.Printf("inclusion victims    %d\n", res.InclusionVictims)
	fmt.Printf("back-invalidates     %d\n", t.BackInvalidates)
	fmt.Printf("memory reads/writes  %d / %d\n", t.MemoryReads, t.WritebacksToMem)
	if t.TLHSent > 0 {
		fmt.Printf("TLH hints sent       %d\n", t.TLHSent)
	}
	if t.ECISent > 0 {
		fmt.Printf("ECI sent/invalidated %d / %d\n", t.ECISent, t.ECIInvalidated)
	}
	if t.QBSQueries > 0 {
		fmt.Printf("QBS queries/saves    %d / %d\n", t.QBSQueries, t.QBSSaves)
	}
	if t.PrefetchIssued > 0 {
		fmt.Printf("prefetches issued    %d (fills %d)\n", t.PrefetchIssued, t.PrefetchFills)
	}
	if t.VictimCacheHits > 0 {
		fmt.Printf("victim cache hits    %d\n", t.VictimCacheHits)
	}
}
