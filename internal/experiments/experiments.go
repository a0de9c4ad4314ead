// Package experiments regenerates every table and figure of the
// paper's evaluation on the simulated machine: the policy variants are
// expressed as configuration deltas over the baseline inclusive
// hierarchy, each experiment runs its workload population under every
// variant, and results are rendered as plain-text tables (and CSV).
//
// The experiment registry (Registry) maps the paper's artifact names —
// table1, table2, figure2 … figure11 — plus the in-text side studies
// (hint fractions, the victim cache, fairness metrics, the footnote
// variants, replacement independence, single-core, snoop traffic, and
// the directory ablation) to runner functions.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"tlacache/internal/hierarchy"
	"tlacache/internal/runner"
	"tlacache/internal/sim"
	"tlacache/internal/telemetry"
	"tlacache/internal/workload"
)

// Options control an experiment run's scale and execution.
type Options struct {
	// Instructions and Warmup are per-core budgets (see sim.Config).
	Instructions uint64
	Warmup       uint64
	// AllPairs runs the full 105-workload population (the paper's
	// s-curves and "All" geomeans) instead of the 12 Table II mixes.
	AllPairs bool
	// Seed diversifies the synthetic streams.
	Seed uint64
	// Progress, when non-nil, receives one synchronized line per
	// completed run (runner.NewReporter wraps any io.Writer).
	Progress *runner.Reporter
	// Workers bounds the parallel simulation workers per sweep; zero
	// selects one per CPU. Results are identical at any width: jobs
	// are independent and merged in submission order.
	Workers int
	// Context, when non-nil, cancels an in-flight experiment (e.g. on
	// Ctrl-C); nil means context.Background().
	Context context.Context
	// Stats, when non-nil, accumulates per-job wall time and simulated
	// instruction throughput for the run manifest.
	Stats *runner.Collector
	// SampleEvery, when non-zero, instruments every simulation cell with
	// a telemetry recorder snapshotting per-core IPC, MPKI, and
	// inclusion victims every SampleEvery committed instructions.
	// Telemetry summaries land in the Stats manifest.
	SampleEvery uint64
	// SampleDir, when set alongside SampleEvery, receives one
	// <mix>-<spec>-intervals.{csv,jsonl} time-series pair per cell.
	SampleDir string
	// DecisionTraceDir, when set, traces every simulation cell's LLC
	// victim decisions and writes one binary TLAD1 trace per cell,
	// <mix>-<spec>-decisions.tlad, for offline analysis with cmd/tlatrace.
	DecisionTraceDir string
}

// DefaultOptions balance fidelity and runtime: the warmup is long
// enough for even the slowest LLC-thrashing application (gobmk-like,
// ~14 LLC fills per kilo-instruction) to fill the 2MB LLC and reach
// replacement steady state — inclusion victims only exist once the LLC
// evicts — and 400K measured instructions keep a full-figure
// regeneration to minutes.
func DefaultOptions() Options {
	return Options{Instructions: 400_000, Warmup: 2_500_000, Seed: 1}
}

// Validate reports the first problem with the options.
func (o *Options) Validate() error {
	if o.Instructions == 0 {
		return fmt.Errorf("experiments: zero instruction budget")
	}
	return nil
}

func (o *Options) mixes() []workload.Mix {
	if o.AllPairs {
		return workload.AllPairs()
	}
	return workload.TableIIMixes()
}

func (o *Options) progressf(format string, args ...interface{}) {
	o.Progress.Printf(format, args...)
}

// ctx resolves the run context.
func (o *Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// engine builds the runner configuration shared by every sweep of this
// experiment: the worker bound, the synchronized progress reporter, and
// the manifest collector.
func (o *Options) engine() runner.Config {
	return runner.Config{Workers: o.Workers, Reporter: o.Progress, Collector: o.Stats}
}

// runJobs fans independent simulation jobs out over the worker pool and
// returns their values in submission order, collapsing the first
// per-job failure into an error.
func runJobs[T any](o Options, jobs []runner.Job[T]) ([]T, error) {
	results, err := runner.Run(o.ctx(), o.engine(), jobs)
	if err != nil {
		return nil, err
	}
	if err := runner.FirstError(results); err != nil {
		return nil, err
	}
	out := make([]T, len(results))
	for i := range results {
		out[i] = results[i].Value
	}
	return out, nil
}

// simConfig builds the baseline simulation config for the options.
func (o *Options) simConfig(cores int) sim.Config {
	cfg := sim.DefaultConfig(cores)
	cfg.Instructions = o.Instructions
	cfg.Warmup = o.Warmup
	cfg.Seed = o.Seed
	cfg.Hierarchy.EnablePrefetch = true // the paper's baseline prefetches
	return cfg
}

// Spec is one hierarchy variant under test: a name and a configuration
// delta applied to the baseline.
type Spec struct {
	Name  string
	Apply func(*hierarchy.Config)
}

func baseline() Spec {
	return Spec{Name: "Inclusive", Apply: func(*hierarchy.Config) {}}
}

func nonInclusive() Spec {
	return Spec{Name: "Non-Inclusive", Apply: func(c *hierarchy.Config) {
		c.Inclusion = hierarchy.NonInclusive
	}}
}

func exclusive() Spec {
	return Spec{Name: "Exclusive", Apply: func(c *hierarchy.Config) {
		c.Inclusion = hierarchy.Exclusive
	}}
}

func tlh(name string, sources hierarchy.CacheSet) Spec {
	return Spec{Name: name, Apply: func(c *hierarchy.Config) {
		c.TLA = hierarchy.TLATLH
		c.TLHSources = sources
		c.TLHPerMille = 1000
	}}
}

func eci() Spec {
	return Spec{Name: "ECI", Apply: func(c *hierarchy.Config) {
		c.TLA = hierarchy.TLAECI
	}}
}

func qbs(name string, probe hierarchy.CacheSet, maxQueries int) Spec {
	return Spec{Name: name, Apply: func(c *hierarchy.Config) {
		c.TLA = hierarchy.TLAQBS
		c.QBSProbe = probe
		c.QBSMaxQueries = maxQueries
	}}
}

// sanitizeName maps a job name to a filesystem-safe file fragment:
// anything outside [A-Za-z0-9._-] becomes '-'.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}

// runCell simulates one (mix, spec) cell.
func runCell(cfg sim.Config, spec Spec, mix workload.Mix) (sim.MixResult, error) {
	c := cfg
	spec.Apply(&c.Hierarchy)
	return sim.RunMix(c, mix)
}

// matrix holds the results of mixes x specs runs; specs[0] is always
// the normalisation baseline.
type matrix struct {
	mixes   []workload.Mix
	specs   []Spec
	results [][]sim.MixResult // [mix][spec]
}

// runMatrix runs every (mix, spec) combination on cores-wide machines,
// fanning the fully independent cells out over the worker pool. Cells
// are submitted row-major and merged back in submission order, so the
// matrix — and everything rendered from it — is identical at any
// worker count.
func runMatrix(o Options, cores int, mixes []workload.Mix, specs []Spec, mutate func(*sim.Config)) (*matrix, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.DecisionTraceDir != "" {
		if err := os.MkdirAll(o.DecisionTraceDir, 0o755); err != nil {
			return nil, err
		}
	}
	m := &matrix{mixes: mixes, specs: specs, results: make([][]sim.MixResult, len(mixes))}
	cfg := o.simConfig(cores)
	if mutate != nil {
		mutate(&cfg)
	}
	work := uint64(cores) * (cfg.Warmup + cfg.Instructions)
	jobs := make([]runner.Job[sim.MixResult], 0, len(mixes)*len(specs))
	for _, mix := range mixes {
		for _, spec := range specs {
			mix, spec := mix, spec
			jobs = append(jobs, runner.Job[sim.MixResult]{
				Name: mix.Name + "/" + spec.Name,
				Work: work,
				Run: func(context.Context) (res sim.MixResult, err error) {
					c := cfg
					if o.SampleEvery > 0 || o.DecisionTraceDir != "" {
						// Each cell owns its recorder, so parallel cells
						// never share telemetry state.
						c.Telemetry = telemetry.NewRecorder(o.SampleEvery)
					}
					if o.DecisionTraceDir != "" {
						// Each cell owns its decision-trace writer; the
						// meta header reflects the spec-mutated geometry.
						hc := c.Hierarchy
						spec.Apply(&hc)
						path := filepath.Join(o.DecisionTraceDir,
							sanitizeName(mix.Name+"-"+spec.Name)+"-decisions.tlad")
						f, ferr := os.Create(path)
						if ferr != nil {
							return res, ferr
						}
						dw, ferr := telemetry.NewDecisionWriter(f, hierarchy.DecisionMetaFor(hc))
						if ferr != nil {
							f.Close()
							return res, ferr
						}
						c.Telemetry.Decisions = dw
						defer func() {
							if ferr := dw.Flush(); ferr != nil && err == nil {
								err = ferr
							}
							if cerr := f.Close(); cerr != nil && err == nil {
								err = cerr
							}
						}()
					}
					res, err = runCell(c, spec, mix)
					if err != nil {
						return res, fmt.Errorf("%s under %s: %w", mix.Name, spec.Name, err)
					}
					if o.SampleEvery > 0 {
						o.Stats.AddTelemetry(mix.Name+"/"+spec.Name, c.Telemetry.Summary())
						if o.SampleDir != "" {
							prefix := filepath.Join(o.SampleDir,
								sanitizeName(mix.Name+"-"+spec.Name)+"-intervals")
							if werr := c.Telemetry.WritePair(prefix); werr != nil {
								return res, werr
							}
						}
					}
					return res, nil
				},
				Detail: func(r sim.MixResult) string {
					return fmt.Sprintf("throughput=%.3f llcMisses=%d victims=%d",
						r.Throughput, r.LLCMisses, r.InclusionVictims)
				},
			})
		}
	}
	cells, err := runJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	for i := range mixes {
		m.results[i] = cells[i*len(specs) : (i+1)*len(specs)]
	}
	return m, nil
}

// normThroughput returns results[i][j].Throughput normalised to spec 0.
func (m *matrix) normThroughput(i, j int) float64 {
	base := m.results[i][0].Throughput
	if base <= 0 {
		return 0
	}
	return m.results[i][j].Throughput / base
}

// missReduction returns the percentage reduction in windowed LLC misses
// of spec j versus spec 0 for mix i.
func (m *matrix) missReduction(i, j int) float64 {
	base := m.results[i][0].LLCMisses
	if base == 0 {
		return 0
	}
	return 100 * (1 - float64(m.results[i][j].LLCMisses)/float64(base))
}

// Table is a rendered experiment artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV writes the table as CSV (RFC-4180-enough for these values:
// no cell contains commas or quotes).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the table as a single indented JSON object, for
// programmatic consumers of regenerated results.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Runner regenerates one paper artifact.
type Runner func(Options) ([]Table, error)

// Registry maps artifact names to runners, in the paper's order.
func Registry() []struct {
	Name string
	Desc string
	Run  Runner
} {
	return []struct {
		Name string
		Desc string
		Run  Runner
	}{
		{"table1", "MPKI of the 15 SPEC surrogates in isolation (no prefetch)", Table1},
		{"table2", "the 12 showcase workload mixes and their categories", Table2},
		{"figure2", "non-inclusive & exclusive vs inclusive across cache ratios", Figure2},
		{"figure5", "Temporal Locality Hints performance (variants + s-curve)", Figure5},
		{"figure6", "Early Core Invalidation performance (+ s-curve)", Figure6},
		{"figure7", "Query Based Selection performance (variants, query limits, s-curve)", Figure7},
		{"figure8", "LLC miss reduction of all policies (+ QBS s-curve)", Figure8},
		{"figure9", "summary on inclusive and non-inclusive baselines", Figure9},
		{"figure10", "scalability across core:LLC ratios", Figure10},
		{"figure11", "scalability across core counts (QBS vs non-inclusive)", Figure11},
		{"tlhfraction", "TLH hint-fraction sensitivity (sec V-A)", TLHFraction},
		{"victimcache", "32-entry LLC victim cache vs ECI/QBS (sec VI)", VictimCache},
		{"fairness", "weighted speedup and hmean fairness of QBS (footnote 5)", Fairness},
		{"modifiedqbs", "modified QBS that invalidates saved lines (footnote 6)", ModifiedQBS},
		{"l2inclusive", "inclusive L2 cost and TLA-at-L2 remedy (footnote 3)", L2Inclusive},
		{"llcreplacement", "inclusion problem under LRU/NRU/SRRIP/DIP LLCs (footnote 4)", LLCReplacement},
		{"singlecore", "QBS on isolated single-threaded workloads (sec VI, Zahran)", SingleCore},
		{"snoopfilter", "coherence snoop cost of giving up inclusion (sec I-II)", SnoopFilter},
		{"directory", "presence-directory ablation: filtered vs broadcast invalidation", Directory},
	}
}

// ByName finds a registered runner.
func ByName(name string) (Runner, error) {
	for _, e := range Registry() {
		if e.Name == name {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", name)
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%+.1f%%", 100*(v-1)) }
