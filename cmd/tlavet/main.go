// Command tlavet is the TLA simulator's domain-aware static analyzer.
// It loads the module with the standard library's go/parser and
// go/types (no external dependencies) and runs checks for properties
// the type system cannot express but the paper's results depend on.
// It has three rules:
//
//	floatcmp        no ==/!= on floats in metrics/experiments
//	lockdiscipline  runner/telemetry/service/sim/decision: field
//	                writes hold the owning mutex, no sends under a lock
//	exhaustive      switches over //tlavet:exhaustive enum types name
//	                every constant (a default arm does not satisfy)
//
// Byte-identical outputs are not a rule: tests produce each output
// twice and compare the bytes.
//
// Usage:
//
//	tlavet ./...                 # analyze the whole module
//	tlavet ./internal/...        # restrict to a subtree
//	tlavet -checks lockdiscipline,exhaustive ./...
//	tlavet -json ./...           # findings as a JSON array on stdout
//	tlavet -sarif ./...          # findings as SARIF 2.1.0 on stdout
//	tlavet -out findings.json ./...  # text to stdout, JSON to a file
//
// A pattern selects a package and everything below it; a pattern that
// selects no package is a usage error. Module checks (exhaustive)
// always see the whole module.
//
// A finding is accepted only in source, with a justified directive on
// or above the offending line:
//
//	//tlavet:allow <check> <reason>
//
// On an unfiltered run a directive that no longer suppresses anything,
// or that names no registered check, is itself reported, so the set of
// suppressions can only shrink.
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage
// or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	checks := fs.String("checks", "all", "comma-separated checks to run")
	list := fs.Bool("list", false, "list available checks and exit")
	dir := fs.String("C", ".", "directory to locate the module from")
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
			if a.RunModule != nil {
				scope = "module"
			}
			fmt.Fprintf(stdout, "%-15s [%s] %s\n", a.Name, scope, a.Doc)
		}
		return 0
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
	filter := patternFilter(mod.Path, fs.Args())
	if filter != nil && !slices.ContainsFunc(mod.Pkgs, func(p *analysis.Package) bool { return filter(p.Path) }) {
		fmt.Fprintf(stderr, "tlavet: no package matches %s\n", strings.Join(fs.Args(), " "))
		return 2
	}
	diags := analysis.RunModule(mod, analyzers, filter)

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
	if len(diags) > 0 {
		return 1
	}
	return 0
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
// path predicate that accepts each named package and its subtree. No
// patterns (or any pattern naming the module root) selects everything,
// which it reports as a nil predicate.
func patternFilter(modPath string, patterns []string) func(string) bool {
	var prefixes []string
	for _, p := range patterns {
		p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
		switch {
		case p == "" || p == "." || p == "all" || p == modPath:
			return nil
		case strings.HasPrefix(p, modPath+"/"):
			prefixes = append(prefixes, p)
		default:
			prefixes = append(prefixes, modPath+"/"+strings.TrimPrefix(p, "./"))
		}
	}
	if len(prefixes) == 0 {
		return nil
	}
	return func(pkgPath string) bool {
		return slices.ContainsFunc(prefixes, func(pre string) bool {
			return pkgPath == pre || strings.HasPrefix(pkgPath, pre+"/")
		})
	}
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
