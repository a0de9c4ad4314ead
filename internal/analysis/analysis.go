// Package analysis is tlavet's engine: a standard-library-only static
// analyzer (go/parser, go/ast, go/types — no x/tools dependency) that
// loads the module and runs domain-specific checks over the simulator's
// source. The three checks mechanically enforce properties the Go type
// system cannot see but the paper's results depend on: sound
// concurrency in the shared-state packages (lockdiscipline), meaningful
// metric comparisons (floatcmp), and dispatch that names every variant
// (exhaustive). A finding is accepted only by a reasoned
// `//tlavet:allow <check> <reason>` on or above its line.
//
// Properties a test can check on running code are left to tests: the
// reset and cache-key field coverage, for instance, are reflection
// tests built on internal/statecheck; the hierarchy's traffic counters
// are checked after every access against a reference hierarchy run in
// lockstep (internal/hierarchy/oracle_test.go); the zero-allocation
// access path is an exact count of heap allocations over every
// lockstep machine once warm (internal/hierarchy/alloc_test.go); and
// byte-identical outputs are tests that produce each output twice and
// compare the bytes (TestDeterminismAcrossGOMAXPROCS and its siblings,
// listed in DESIGN.md §13).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suggestion string `json:"suggestion,omitempty"`
}

// String renders the diagnostic in the conventional compiler format.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	if d.Suggestion != "" {
		s += " (" + d.Suggestion + ")"
	}
	return s
}

// Analyzer is one named check. Exactly one of Run and RunModule is set:
// per-package checks inspect one package through a Pass, module checks
// see the whole module at once through a ModulePass. Neither may retain
// its pass.
type Analyzer struct {
	// Name is the check's identifier, used in diagnostics and -checks.
	Name string
	// Doc is a one-line description for `tlavet -list`.
	Doc string
	// Help is the longer remediation guidance rendered into the SARIF
	// rule metadata (fullDescription and help). Every registered check
	// must set it — the rule-parity test enforces this.
	Help string
	// Run executes a per-package check against pass.Pkg.
	Run func(pass *Pass)
	// RunModule executes a module check against mp.Module.
	RunModule func(mp *ModulePass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Root, when non-empty, is the directory diagnostics' file paths are
	// made relative to.
	Root   string
	diags  *[]Diagnostic
	allows allowIndex
}

// Report records a finding at pos unless a `//tlavet:allow` directive
// suppresses it.
func (p *Pass) Report(pos token.Pos, msg, suggestion string) {
	if p.allows == nil {
		p.allows = buildAllowIndex(p.Fset, p.Pkg.Files)
	}
	report(p.Fset, p.Root, p.Analyzer.Name, p.allows, p.diags, pos, msg, suggestion)
}

// ModulePass carries one (module analyzer, module) unit of work.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Module   *Module
	// Root, when non-empty, relativises diagnostics' file paths.
	Root   string
	diags  *[]Diagnostic
	allows allowIndex
}

// Report records a finding at pos unless a `//tlavet:allow` directive
// suppresses it.
func (mp *ModulePass) Report(pos token.Pos, msg, suggestion string) {
	if mp.allows == nil {
		var files []*ast.File
		for _, pkg := range mp.Module.Pkgs {
			files = append(files, pkg.Files...)
		}
		mp.allows = buildAllowIndex(mp.Fset, files)
	}
	report(mp.Fset, mp.Root, mp.Analyzer.Name, mp.allows, mp.diags, pos, msg, suggestion)
}

// report is the shared diagnostic sink behind Pass and ModulePass.
func report(fset *token.FileSet, root, analyzer string, allows allowIndex,
	diags *[]Diagnostic, pos token.Pos, msg, suggestion string) {
	position := fset.Position(pos)
	if allows.allowed(analyzer, position.Filename, position.Line) {
		return
	}
	*diags = append(*diags, Diagnostic{
		File:       relPath(root, position.Filename),
		Line:       position.Line,
		Col:        position.Column,
		Analyzer:   analyzer,
		Message:    msg,
		Suggestion: suggestion,
	})
}

// allowEntry is one well-formed `//tlavet:allow` directive. used is set
// when the directive actually suppresses a diagnostic, so unused
// directives can be reported as stale and the suppression set can only
// ever shrink.
type allowEntry struct {
	check string
	used  bool
}

// allowIndex maps file → line → the directives a `//tlavet:allow`
// comment places there. A directive written on its own line suppresses
// the line below it; a trailing directive suppresses its own line.
// Directives must carry a reason (`//tlavet:allow <check> <reason>`); a
// reasonless directive suppresses nothing, so suppressions stay
// auditable.
type allowIndex map[string]map[int][]*allowEntry

func (ai allowIndex) allowed(check, file string, line int) bool {
	byLine := ai[file]
	if byLine == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		for _, e := range byLine[l] {
			if e.check == check {
				e.used = true
				return true
			}
		}
	}
	return false
}

// buildAllowIndex collects every well-formed allow directive in files.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	ai := make(allowIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//tlavet:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // no reason given: not a valid suppression
				}
				position := fset.Position(c.Pos())
				byLine := ai[position.Filename]
				if byLine == nil {
					byLine = make(map[int][]*allowEntry)
					ai[position.Filename] = byLine
				}
				byLine[position.Line] = append(byLine[position.Line], &allowEntry{check: fields[0]})
			}
		}
	}
	return ai
}

// stale returns a diagnostic for every directive that suppressed
// nothing during the run and either names a check that ran or names no
// registered check at all (a directive for a registered check that did
// not run is not evidence of anything). ran maps every registered check
// to whether it ran.
func (ai allowIndex) stale(root string, ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for file, byLine := range ai {
		for line, entries := range byLine {
			for _, e := range entries {
				didRun, registered := ran[e.check]
				if e.used || (registered && !didRun) {
					continue
				}
				why := "no diagnostic is suppressed here"
				if !registered {
					why = "no registered check has that name"
				}
				out = append(out, Diagnostic{
					File:       relPath(root, file),
					Line:       line,
					Analyzer:   e.check,
					Message:    "stale //tlavet:allow " + e.check + ": " + why,
					Suggestion: "delete the directive; suppressions may only shrink",
				})
			}
		}
	}
	return out
}

// relPath makes file relative to root when root is set and contains it.
func relPath(root, file string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return file
}

// TypeOf returns the static type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return typeOf(p.Pkg, e) }

// typeOf returns the static type of e in pkg, or nil when unknown.
func typeOf(pkg *Package, e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pkg.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Analyzers returns every registered check in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatCmpAnalyzer,
		LockDisciplineAnalyzer,
		ExhaustiveAnalyzer,
	}
}

// Select resolves a comma-separated -checks list against the registry;
// "" or "all" selects every check.
func Select(list string) ([]*Analyzer, error) {
	all := Analyzers()
	if list == "" || list == "all" {
		return all, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(all, func(a *Analyzer) bool { return a.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("analysis: unknown check %q", name)
		}
		out = append(out, all[i])
	}
	return out, nil
}

// RunPackage runs the given analyzers over one loaded package,
// returning findings sorted by position. root relativises file paths.
// Module analyzers see the package as a one-package module — this is
// how the golden fixtures exercise them.
func RunPackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer, root string) []Diagnostic {
	var diags []Diagnostic
	var single *Module
	for _, a := range analyzers {
		if a.RunModule != nil {
			if single == nil {
				single = &Module{Root: root, Path: pkg.Path, Fset: fset, Pkgs: []*Package{pkg}}
			}
			a.RunModule(&ModulePass{Analyzer: a, Fset: fset, Module: single, Root: root, diags: &diags})
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, Root: root, diags: &diags}
		a.Run(pass)
	}
	sortDiagnostics(diags)
	return diags
}

// RunModule runs the given analyzers over every package of m whose
// import path is accepted by filter (nil accepts all), returning the
// findings sorted by position. Per-package analyzers run once per
// accepted package; module analyzers run once over the whole module —
// an enum declared in a filtered-out package still binds the switches
// over it — when at least one package is accepted. An unfiltered run
// also reports every `//tlavet:allow` that suppressed nothing, so the
// set of suppressions can only shrink; a filtered run does not evaluate
// every package, so an unused directive there proves nothing.
func RunModule(m *Module, analyzers []*Analyzer, filter func(pkgPath string) bool) []Diagnostic {
	var diags []Diagnostic
	var files []*ast.File
	for _, pkg := range m.Pkgs {
		files = append(files, pkg.Files...)
	}
	allows := buildAllowIndex(m.Fset, files)
	anyAccepted := false
	for _, pkg := range m.Pkgs {
		if filter != nil && !filter(pkg.Path) {
			continue
		}
		anyAccepted = true
		for _, a := range analyzers {
			if a.RunModule == nil {
				a.Run(&Pass{Analyzer: a, Fset: m.Fset, Pkg: pkg, Root: m.Root, diags: &diags, allows: allows})
			}
		}
	}
	for _, a := range analyzers {
		if anyAccepted && a.RunModule != nil {
			a.RunModule(&ModulePass{Analyzer: a, Fset: m.Fset, Module: m, Root: m.Root, diags: &diags, allows: allows})
		}
	}
	if filter == nil {
		ran := make(map[string]bool)
		for _, a := range Analyzers() {
			ran[a.Name] = false
		}
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		diags = append(diags, allows.stale(m.Root, ran)...)
	}
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// pathInPackages reports whether pkgPath names one of the listed
// internal packages, e.g. pathInPackages(p, "cache", "sim") matches
// ".../internal/cache" and ".../internal/sim" (and their subpackages).
func pathInPackages(pkgPath string, names ...string) bool {
	for _, n := range names {
		seg := "internal/" + n
		if pkgPath == seg || strings.HasSuffix(pkgPath, "/"+seg) ||
			strings.Contains(pkgPath, "/"+seg+"/") {
			return true
		}
	}
	return false
}

// walkWithStack traverses every file of pkg keeping an ancestor stack;
// fn receives each node with stack holding its ancestors, outermost
// first (stack excludes n itself).
func walkWithStack(pkg *Package, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fn(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}
