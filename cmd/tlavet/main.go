// Command tlavet is the TLA simulator's domain-aware static analyzer.
// It loads the module with the standard library's go/parser and
// go/types (no external dependencies) and runs checks for properties
// the type system cannot express but the paper's results depend on:
//
//	nondeterminism     no wall clocks (Now/Since/Until), math/rand (under
//	                   any alias), state-mutating map iteration, or
//	                   sync.Map iteration in simulation packages
//	probeguard         telemetry probe calls dominated by nil checks
//	panicmsg           package-prefixed panics, no bare panic(err)
//	counterdiscipline  Traffic/Recorder counters only ever incremented
//	floatcmp           no ==/!= on floats in metrics/experiments
//	hotpath            no heap allocation reachable from //tlavet:hotpath
//	                   roots (interprocedural, call chains in findings)
//	lockdiscipline     runner/telemetry/service/sim/decision mutex
//	                   discipline
//	detflow            no nondeterministic value or ordering flows into a
//	                   //tlavet:detsink function (interprocedural taint,
//	                   source→sink chains in findings)
//	keycover           every field of a //tlavet:keycover'd config struct
//	                   is encoded or carries //tlavet:keyexempt <reason>
//	exhaustive         switches over //tlavet:exhaustive enum types name
//	                   every constant (a default arm does not satisfy)
//	resetcover         every field reachable from a //tlavet:resetcover'd
//	                   reset method's receiver is restored or carries
//	                   //tlavet:resetexempt <reason>
//
// Usage:
//
//	tlavet ./...                 # analyze the whole module
//	tlavet ./internal/...        # restrict to a subtree
//	tlavet -checks hotpath ./...
//	tlavet -json ./...           # findings as a JSON array on stdout
//	tlavet -sarif ./...          # findings as SARIF 2.1.0 on stdout
//	tlavet -out findings.json ./...  # text to stdout, JSON to a file
//	tlavet -fail-stale-allows ./...  # unused //tlavet:allow directives fail
//	tlavet -baseline tlavet.baseline.json ./...   # suppress accepted findings
//	tlavet -baseline b.json -update-baseline ./...  # regenerate the baseline
//	tlavet -baseline b.json -fail-stale ./...       # ratchet: stale entries fail
//
// Individual findings are suppressed in source with a justified
// directive on or above the offending line:
//
//	//tlavet:allow <check> <reason>
//
// With -fail-stale-allows (the CI default), a directive that no longer
// suppresses anything is itself reported, so the set of suppressions
// can only shrink.
//
// Exit status: 0 when clean, 1 when findings were reported (or, with
// -fail-stale, when the baseline has stale entries), 2 on usage or load
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tlacache/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tlavet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
	outFile := fs.String("out", "", "also write findings as JSON to this file")
	failStaleAllows := fs.Bool("fail-stale-allows", false, "report //tlavet:allow directives that suppress nothing as findings")
	checks := fs.String("checks", "all", "comma-separated checks to run")
	list := fs.Bool("list", false, "list available checks and exit")
	dir := fs.String("C", ".", "directory to locate the module from")
	baseline := fs.String("baseline", "", "suppress findings recorded in this baseline file")
	updateBaseline := fs.Bool("update-baseline", false, "rewrite the -baseline file from current findings and exit clean")
	failStale := fs.Bool("fail-stale", false, "exit 1 when the -baseline file has entries no finding matches (ratchet)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := analysis.Select(*checks)
	if err != nil {
		fmt.Fprintln(stderr, "tlavet:", err)
		return 2
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			scope := "package"
			if a.Interprocedural() {
				scope = "module"
			}
			enabled := "default"
			if !a.Default {
				enabled = "opt-in"
			}
			fmt.Fprintf(stdout, "%-18s [%s, %s] %s\n", a.Name, enabled, scope, a.Doc)
		}
		return 0
	}
	if (*updateBaseline || *failStale) && *baseline == "" {
		fmt.Fprintln(stderr, "tlavet: -update-baseline and -fail-stale require -baseline")
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "tlavet: -json and -sarif are mutually exclusive")
		return 2
	}

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "tlavet:", err)
		return 2
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "tlavet:", err)
		return 2
	}

	filter, err := patternFilter(mod.Path, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "tlavet:", err)
		return 2
	}
	if *failStaleAllows && filter != nil {
		fmt.Fprintln(stderr, "tlavet: -fail-stale-allows requires an unfiltered run (./...): a restricted run cannot prove a directive unused")
		return 2
	}
	res := analysis.RunModuleFull(mod, analyzers, filter)
	diags := res.Diagnostics
	if *failStaleAllows {
		diags = mergeSorted(diags, res.StaleAllows)
	}

	staleFailure := false
	if *baseline != "" {
		if *updateBaseline {
			if err := analysis.NewBaseline(diags).WriteFile(*baseline); err != nil {
				fmt.Fprintln(stderr, "tlavet:", err)
				return 2
			}
			fmt.Fprintf(stderr, "tlavet: baseline %s updated (%d finding(s) recorded)\n", *baseline, len(diags))
			return 0
		}
		b, err := analysis.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "tlavet:", err)
			return 2
		}
		fresh, stale := b.Filter(diags)
		diags = fresh
		for _, e := range stale {
			fmt.Fprintf(stderr, "tlavet: stale baseline entry: %s: %s: %s (x%d no longer found)\n",
				e.File, e.Analyzer, e.Message, e.Count)
		}
		if len(stale) > 0 && *failStale {
			fmt.Fprintf(stderr, "tlavet: %d stale baseline entr(y/ies); regenerate with -update-baseline to ratchet down\n", len(stale))
			staleFailure = true
		}
	}

	if *outFile != "" {
		if err := writeJSON(*outFile, diags); err != nil {
			fmt.Fprintln(stderr, "tlavet:", err)
			return 2
		}
	}
	switch {
	case *sarifOut:
		out, err := analysis.SARIF(diags)
		if err != nil {
			fmt.Fprintln(stderr, "tlavet:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(out))
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "tlavet:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "tlavet: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 || staleFailure {
		return 1
	}
	return 0
}

// mergeSorted combines findings and stale-allow reports into one
// position-sorted stream.
func mergeSorted(a, b []analysis.Diagnostic) []analysis.Diagnostic {
	out := append(append([]analysis.Diagnostic{}, a...), b...)
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.File != y.File {
			return x.File < y.File
		}
		if x.Line != y.Line {
			return x.Line < y.Line
		}
		if x.Col != y.Col {
			return x.Col < y.Col
		}
		return x.Analyzer < y.Analyzer
	})
	return out
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// patternFilter turns `./...`-style package patterns into an import
// path predicate. No patterns (or any `./...`) selects everything.
func patternFilter(modPath string, patterns []string) (func(string) bool, error) {
	if len(patterns) == 0 {
		return nil, nil
	}
	var prefixes []string
	for _, p := range patterns {
		switch {
		case p == "./..." || p == "..." || p == "all":
			return nil, nil
		case strings.HasPrefix(p, "./"):
			p = strings.TrimPrefix(p, "./")
			fallthrough
		default:
			p = strings.TrimSuffix(p, "...")
			p = strings.TrimSuffix(p, "/")
			if p == "" {
				return nil, nil
			}
			prefixes = append(prefixes, modPath+"/"+p)
		}
	}
	return func(pkgPath string) bool {
		for _, pre := range prefixes {
			if pkgPath == pre || strings.HasPrefix(pkgPath, pre+"/") || strings.HasPrefix(pkgPath, pre) {
				return true
			}
		}
		return false
	}, nil
}

// writeJSON writes diags as an indented JSON array to path.
func writeJSON(path string, diags []analysis.Diagnostic) error {
	if diags == nil {
		diags = []analysis.Diagnostic{}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(diags); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
