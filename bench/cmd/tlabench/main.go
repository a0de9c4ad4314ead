// Command tlabench runs tlacache's benchmark of record.
//
//	tlabench -workload <name|all> -seed N [-seconds S] [-trace 0|1] [-quick] [-repeat K] [-json FILE]
//
// Each run of a workload happens in fresh child processes with
// GOMAXPROCS set to the CPU count: one child measures, and set-up-only
// children around it time the set-up, whose median is reported.
// tlabench prints every metric as `workload metric value unit` and, as
// its last line, one JSON object with the keys correct, attempted,
// failed and metrics. With -trace 0 those metrics are bench.EndToEnd;
// with -trace 1 they are bench.PerLayer, and the spans go to
// .bench_build/spans-<workload>.jsonl. -repeat K runs seeds N to
// N+K-1 and prints each metric's median, quartiles and relative IQR.
// The exit status is 0 only when every output was correct.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"tlacache/bench"
)

// The parent passes a child its mode and directories through the
// environment, so the child parses the same flags as the parent.
const (
	childEnv = "TLABENCH_CHILD" // "setup" or "run"
	tmpEnv   = "TLABENCH_TMP"
	spansEnv = "TLABENCH_SPANS"
)

// setupRuns is how many set-up-only children run besides the measuring
// one.
const setupRuns = 20

// childTimeout bounds one child process.
const childTimeout = 170 * time.Second

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(child(mode, os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, ".bench_build"))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	repeat   int
	jsonPath string
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("tlabench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "all", "workload name, or all")
	fs.Uint64Var(&c.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&c.seconds, "seconds", 25, "measurement window per run")
	fs.IntVar(&c.trace, "trace", 0, "1 adds the traced per-layer measurements")
	fs.BoolVar(&c.quick, "quick", false, "smoke-test sizes")
	fs.IntVar(&c.repeat, "repeat", 1, "runs per workload, on seeds seed..seed+repeat-1")
	fs.StringVar(&c.jsonPath, "json", "", "also write every run's full result to this file")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	case c.trace != 0 && c.trace != 1:
		return c, fmt.Errorf("-trace must be 0 or 1")
	case c.repeat < 1:
		return c, fmt.Errorf("-repeat must be at least 1")
	case c.seconds < 0:
		return c, fmt.Errorf("-seconds must not be negative")
	}
	return c, nil
}

// child runs one workload in this process and prints its result as
// JSON on stdout. Its set-up time counts from its own entry, which is
// the process's main entry.
func child(mode string, args []string) int {
	start := time.Now()
	c, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlabench child:", err)
		return 2
	}
	before := time.Since(start).Seconds()
	res, err := bench.Run(c.workload, bench.Options{
		Seed: c.seed, Seconds: c.seconds, Traced: c.trace == 1, Quick: c.quick,
		SetupOnly: mode == "setup", TempDir: os.Getenv(tmpEnv), SpanPath: os.Getenv(spansEnv),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlabench child:", err)
		return 1
	}
	res.SetupSeconds += before
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "tlabench child:", err)
		return 1
	}
	return 0
}

// run is the parent: it measures every requested workload through
// child processes, with work files under dir, and reports.
func run(args []string, stdout io.Writer, dir string) int {
	c, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlabench:", err)
		return 2
	}
	var names []string
	for _, w := range bench.Workloads() {
		if c.workload == "all" || c.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "tlabench: unknown workload %q\n", c.workload)
		return 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tlabench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlabench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	results := make(map[string][]*bench.Result)
	for _, name := range names {
		for k := 0; k < c.repeat; k++ {
			cc := c
			cc.workload, cc.seed = name, c.seed+uint64(k)
			res, err := measure(cc, tmp, filepath.Join(dir, "spans-"+name+".jsonl"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "tlabench: %s seed %d: %v\n", name, cc.seed, err)
				return 1
			}
			for _, f := range res.Failures {
				fmt.Fprintf(os.Stderr, "tlabench: %s seed %d: %s\n", name, cc.seed, f)
			}
			results[name] = append(results[name], res)
		}
	}
	if c.jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(c.jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tlabench:", err)
			return 1
		}
	}
	if !report(stdout, names, results, c.trace == 1) {
		return 1
	}
	return 0
}

// measure runs one workload at one seed: the measuring child between
// two halves of the setupRuns set-up-only children, so the set-up
// samples come from both ends of the run. It adds the metrics only the
// parent can see.
func measure(c config, tmp, spans string) (*bench.Result, error) {
	args := []string{"-workload", c.workload, "-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", strconv.Itoa(c.trace)}
	if c.quick {
		args = append(args, "-quick")
	}
	var setups []float64
	setup := func(n int) error {
		for i := 0; i < n; i++ {
			res, _, err := spawn("setup", args, tmp, "")
			if err != nil {
				return err
			}
			setups = append(setups, res.SetupSeconds)
		}
		return nil
	}
	if err := setup(setupRuns / 2); err != nil {
		return nil, err
	}
	if c.trace == 0 {
		spans = ""
	}
	res, rssKiB, err := spawn("run", args, tmp, spans)
	if err != nil {
		return nil, err
	}
	if err := setup(setupRuns - setupRuns/2); err != nil {
		return nil, err
	}
	res.Add("setup_s", bench.Median(append(setups, res.SetupSeconds)), "s")
	res.Add("peak_rss_mb", float64(rssKiB)/1024, "MB")
	res.Add("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	return res, nil
}

// spawn runs this executable as a child in the given mode, waits for
// it, and returns its result and peak resident set in KiB.
func spawn(mode string, args []string, tmp, spans string) (*bench.Result, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+mode, tmpEnv+"="+tmp, spansEnv+"="+spans,
		"GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", mode, err)
	}
	var res bench.Result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, 0, fmt.Errorf("%s child output: %w", mode, err)
	}
	// Maxrss is in KiB on Linux.
	return &res, cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss, nil
}

// summary is the last line of the output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric and the summary line, and returns whether
// every output was correct and every reported metric present.
func report(w io.Writer, names []string, results map[string][]*bench.Result, traced bool) bool {
	want := bench.EndToEnd
	if traced {
		want = bench.PerLayer
	}
	sum := summary{Correct: true, Metrics: map[string]summaryItem{}}
	for _, name := range names {
		runs := results[name]
		for _, res := range runs {
			sum.Attempted += res.Attempted
			sum.Failed += res.Failed
			fmt.Fprintf(w, "%s digest %s sha256\n", name, res.Digest)
		}
		for _, m := range runs[0].Metrics {
			values := make([]float64, 0, len(runs))
			for _, res := range runs {
				if v, ok := res.Metric(m.Name); ok {
					values = append(values, v.Value)
				}
			}
			q1, med, q3 := bench.Quartiles(values)
			if len(runs) == 1 {
				fmt.Fprintf(w, "%s %s %g %s\n", name, m.Name, med, m.Unit)
			} else {
				fmt.Fprintf(w, "%s %s %g %s q1=%g q3=%g riqr=%.4f\n", name, m.Name, med, m.Unit, q1, q3, bench.RelIQR(values))
			}
			if slices.Contains(want, m.Name) {
				key := m.Name
				if len(names) > 1 {
					key = name + "/" + m.Name
				}
				sum.Metrics[key] = summaryItem{med, m.Unit}
			}
		}
		for _, m := range want {
			if _, ok := runs[0].Metric(m); !ok {
				fmt.Fprintf(os.Stderr, "tlabench: %s did not report %s\n", name, m)
				sum.Correct = false
			}
		}
	}
	sum.Correct = sum.Correct && sum.Failed == 0
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlabench:", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return sum.Correct
}
