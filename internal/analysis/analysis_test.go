package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureCases maps each golden-fixture directory to the analyzer it
// exercises and the import path that places the fixture inside the
// analyzer's scope.
var fixtureCases = []struct {
	analyzer *Analyzer
	dir      string
	path     string
}{
	{FloatCmpAnalyzer, "floatcmp", "tlacache/internal/metrics"},
	{LockDisciplineAnalyzer, "lockdiscipline", "tlacache/internal/runner"},
	{ExhaustiveAnalyzer, "exhaustive", "tlacache/internal/exhaustive"},
}

// TestGoldenFixtures checks every analyzer against its fixtures: each
// `// want` comment must be matched by a diagnostic on that exact
// file:line, and no diagnostic may appear without a matching want.
func TestGoldenFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := LoadDir(filepath.Join("testdata", tc.dir), tc.path)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags := RunPackage(pkg.Fset, pkg, []*Analyzer{tc.analyzer}, "")
			if len(diags) == 0 {
				t.Fatal("fixture produced no diagnostics")
			}
			checkWants(t, pkg, diags)
		})
	}
}

// TestLockDisciplineScope pins the analyzer's package scope: the
// daemon's service packages are polled like runner/telemetry, while a
// package outside the concurrent set loads the same fixture silently.
func TestLockDisciplineScope(t *testing.T) {
	for path, inScope := range map[string]bool{
		"tlacache/internal/service":       true,
		"tlacache/internal/service/api":   true,
		"tlacache/internal/service/cache": true,
		"tlacache/internal/sim":           true,
		"tlacache/internal/decision":      true,
		"tlacache/internal/metrics":       false,
	} {
		pkg, err := LoadDir(filepath.Join("testdata", "lockdiscipline"), path)
		if err != nil {
			t.Fatalf("loading fixture as %s: %v", path, err)
		}
		diags := RunPackage(pkg.Fset, pkg, []*Analyzer{LockDisciplineAnalyzer}, "")
		if inScope && len(diags) == 0 {
			t.Errorf("%s: in scope but produced no diagnostics", path)
		}
		if !inScope && len(diags) != 0 {
			t.Errorf("%s: out of scope but produced %d diagnostics", path, len(diags))
		}
	}
}

type wantKey struct {
	file string
	line int
}

// wantPattern extracts the backtick-quoted regexps of one want comment.
var wantPattern = regexp.MustCompile("`([^`]+)`")

// collectWants parses the fixture's `// want `regexp“ comments into
// per-line expectations.
func collectWants(t *testing.T, pkg *Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantPattern.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					key := wantKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("fixture has no want comments")
	}
	return wants
}

// checkWants matches diagnostics against expectations both ways:
// every diagnostic needs a want on its line, every want needs a
// diagnostic matching its pattern.
func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := wantKey{d.File, d.Line}
		matched := false
		for i, re := range wants[key] {
			if re != nil && re.MatchString(d.Message) {
				wants[key][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: no diagnostic matching `%s`", key.file, key.line, re)
			}
		}
	}
}

// TestRepoIsClean is the self-hosting check: the analyzers must accept
// the repository they guard, so the in-tree sources carry zero
// findings. Skipped in -short mode (a full module load costs seconds).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-module load in -short mode")
	}
	m, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(m.Pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module walk looks broken", len(m.Pkgs))
	}
	for _, d := range RunModule(m, Analyzers(), nil) {
		t.Errorf("in-tree finding: %s", d)
	}
}

// TestSelect exercises the -checks resolver.
func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("Select(all) = %d analyzers, err %v", len(all), err)
	}
	two, err := Select("exhaustive, floatcmp")
	if err != nil || len(two) != 2 || two[0].Name != "exhaustive" || two[1].Name != "floatcmp" {
		t.Fatalf("Select(exhaustive, floatcmp) = %v, err %v", two, err)
	}
	for _, retired := range []string{"nosuchcheck", "panicmsg", "counterdiscipline", "nondeterminism", "hotpath", "detflow"} {
		if _, err := Select(retired); err == nil {
			t.Fatalf("Select(%s) did not error", retired)
		}
	}
}

// TestDiagnosticString pins the compiler-style rendering.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 3, Col: 7, Analyzer: "floatcmp", Message: "m", Suggestion: "s"}
	if got, want := d.String(), "a/b.go:3:7: floatcmp: m (s)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestAllowDirectiveRequiresReason checks the suppression contract: a
// directive suppresses its own line and the line below, only for the
// named check, and only when a reason is given.
func TestAllowDirectiveRequiresReason(t *testing.T) {
	src := `package p

//tlavet:allow exhaustive the other kinds cannot reach this switch
var a = 1

//tlavet:allow exhaustive
var b = 2

var c = 3 //tlavet:allow lockdiscipline fixture says so
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ai := buildAllowIndex(fset, []*ast.File{f})
	cases := []struct {
		check string
		line  int
		want  bool
	}{
		{"exhaustive", 4, true},      // line below a reasoned directive
		{"exhaustive", 3, true},      // the directive's own line
		{"exhaustive", 7, false},     // reasonless directive suppresses nothing
		{"lockdiscipline", 9, true},  // trailing directive, same line
		{"exhaustive", 9, false},     // wrong check name
		{"lockdiscipline", 10, true}, // line below a trailing directive is also covered
	}
	for _, c := range cases {
		if got := ai.allowed(c.check, "allow.go", c.line); got != c.want {
			t.Errorf("allowed(%s, line %d) = %v, want %v", c.check, c.line, got, c.want)
		}
	}
}
