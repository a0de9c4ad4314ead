package tlacache

// Source rules: three properties of the simulator's own source that
// the type system cannot express and a run may never exercise. Each
// rule is a function over one type-checked package; each test applies
// it to the module's packages, then to an inline snippet on which it
// must flag exactly the lines marked "// planted".
//
//   - TestNoFloatEquality: no == or != on floats in internal/metrics or
//     internal/experiments, where every float is a result value.
//   - TestSwitchesAreExhaustive: a switch over one of exhaustiveEnums
//     names every declared constant; a default arm does not count.
//   - TestLockDiscipline: in the concurrent packages, a method of a
//     mutex-owning struct writes receiver fields only with the mutex
//     held, and sends on no channel while holding it.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sourcePackage is one package of the module, type-checked from source.
type sourcePackage struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// sourceModule holds every package of the module (the nested bench
// module is not part of ./...) and the importer they were checked
// with, which reads each import from the export data go list reported.
type sourceModule struct {
	fset *token.FileSet
	imp  types.Importer
	pkgs []*sourcePackage // in dependency order
}

// loadModule runs once per test binary: the go tool finds the packages
// and picks their files by build constraints.
var loadModule = sync.OnceValues(func() (*sourceModule, error) {
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, stderr.Bytes())
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var own []listed
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, err
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard {
			own = append(own, p)
		}
	}
	m := &sourceModule{fset: token.NewFileSet()}
	m.imp = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	for _, p := range own {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := m.check(p.ImportPath, files)
		if err != nil {
			return nil, err
		}
		m.pkgs = append(m.pkgs, pkg)
	}
	return m, nil
})

// check type-checks files as package path.
func (m *sourceModule) check(path string, files []*ast.File) (*sourcePackage, error) {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: m.imp}
	tpkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	return &sourcePackage{path: path, files: files, types: tpkg, info: info}, nil
}

func mustLoadModule(t *testing.T) *sourceModule {
	t.Helper()
	m, err := loadModule()
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	return m
}

// inInternal reports whether path is one of the named internal packages
// or below one.
func inInternal(path string, names ...string) bool {
	for _, n := range names {
		n = "tlacache/internal/" + n
		if path == n || strings.HasPrefix(path, n+"/") {
			return true
		}
	}
	return false
}

// finding is one rule violation.
type finding struct {
	pos token.Position
	msg string
}

func (f finding) String() string { return f.pos.String() + ": " + f.msg }

// checkSnippet type-checks src with the module's importer, runs rule on
// it and requires findings on exactly the lines that end in "// planted".
func checkSnippet(t *testing.T, m *sourceModule, src string,
	rule func(*token.FileSet, []*ast.File, *types.Info) []finding) {
	t.Helper()
	f, err := parser.ParseFile(m.fset, "snippet.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := m.check("snippet", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	var want, got []int
	for i, line := range strings.Split(src, "\n") {
		if strings.HasSuffix(line, "// planted") {
			want = append(want, i+1)
		}
	}
	for _, fd := range rule(m.fset, pkg.files, pkg.info) {
		got = append(got, fd.pos.Line)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("snippet: findings on lines %v, want %v", got, want)
	}
}

// floatEqualities reports every == and != with a floating-point
// operand: IPC, throughput and speedup are products of long
// accumulation chains, so exact equality on them holds or fails by the
// accident of rounding order.
func floatEqualities(fset *token.FileSet, files []*ast.File, info *types.Info) []finding {
	var out []finding
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			cmp, ok := n.(*ast.BinaryExpr)
			if ok && (cmp.Op == token.EQL || cmp.Op == token.NEQ) &&
				(isFloat(info.TypeOf(cmp.X)) || isFloat(info.TypeOf(cmp.Y))) {
				out = append(out, finding{fset.Position(cmp.Pos()),
					"floating-point " + cmp.Op.String() + "; compare against an epsilon or with < and <="})
			}
			return true
		})
	}
	return out
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func TestNoFloatEquality(t *testing.T) {
	m := mustLoadModule(t)
	scanned := 0
	for _, pkg := range m.pkgs {
		if !inInternal(pkg.path, "metrics", "experiments") {
			continue
		}
		scanned++
		for _, fd := range floatEqualities(m.fset, pkg.files, pkg.info) {
			t.Error(fd)
		}
	}
	if scanned != 2 {
		t.Errorf("scanned %d packages, want internal/metrics and internal/experiments", scanned)
	}
	checkSnippet(t, m, `package snippet

func gap(base, policy float64, hits, misses uint64) bool {
	if base == policy { // planted
		return false
	}
	return policy != 0 || // planted
		base < policy || hits == misses
}
`, floatEqualities)
}

// exhaustiveEnums are the types whose switches must name every
// declared constant, so that a new inclusion mode, TLA policy, hit
// level, replacement policy or job state fails here in every dispatch
// that has not considered it instead of falling into a default arm.
var exhaustiveEnums = []string{
	"tlacache/internal/hierarchy.InclusionMode",
	"tlacache/internal/hierarchy.TLAPolicy",
	"tlacache/internal/hierarchy.Level",
	"tlacache/internal/replacement.Kind",
	"tlacache/internal/service/api.JobState",
}

// typeKey names a named type "<pkg path>.<Name>", and anything else "".
func typeKey(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// enumConstants maps each of exhaustiveEnums to its package-level
// constants, keyed "<pkg path>.<Name>" in name order. Keys, not
// types.Objects: a package checked from source and the same package
// imported from export data have different objects.
func enumConstants(m *sourceModule) map[string][]string {
	enums := make(map[string][]string)
	for _, pkg := range m.pkgs {
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok {
				continue
			}
			if enum := typeKey(c.Type()); slices.Contains(exhaustiveEnums, enum) {
				enums[enum] = append(enums[enum], pkg.path+"."+name)
			}
		}
	}
	return enums
}

// partialSwitches reports every tagged switch over a type of enums
// that leaves out one of the type's constants, and counts the switches
// it checked.
func partialSwitches(fset *token.FileSet, files []*ast.File, info *types.Info,
	enums map[string][]string) (out []finding, checked int) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			enum := typeKey(info.TypeOf(sw.Tag))
			consts, ok := enums[enum]
			if !ok {
				return true
			}
			checked++
			named := make(map[string]bool)
			for _, stmt := range sw.Body.List {
				for _, e := range stmt.(*ast.CaseClause).List {
					var id *ast.Ident
					switch e := ast.Unparen(e).(type) {
					case *ast.Ident:
						id = e
					case *ast.SelectorExpr:
						id = e.Sel
					}
					if c, ok := info.Uses[id].(*types.Const); ok && c.Pkg() != nil {
						named[c.Pkg().Path()+"."+c.Name()] = true
					}
				}
			}
			var missing []string
			for _, c := range consts {
				if !named[c] {
					missing = append(missing, c[strings.LastIndex(c, ".")+1:])
				}
			}
			if len(missing) > 0 {
				out = append(out, finding{fset.Position(sw.Pos()), "switch over " + enum +
					" misses " + strings.Join(missing, ", ") + " (a default arm does not count)"})
			}
			return true
		})
	}
	return out, checked
}

func TestSwitchesAreExhaustive(t *testing.T) {
	m := mustLoadModule(t)
	enums := enumConstants(m)
	for _, enum := range exhaustiveEnums {
		if len(enums[enum]) < 2 {
			t.Errorf("%s: found constants %v", enum, enums[enum])
		}
	}
	checked := 0
	for _, pkg := range m.pkgs {
		fds, n := partialSwitches(m.fset, pkg.files, pkg.info, enums)
		checked += n
		for _, fd := range fds {
			t.Error(fd)
		}
	}
	if checked == 0 {
		t.Error("no switch over a listed enum was checked")
	}
	t.Logf("%d switches over %d enums", checked, len(enums))
	checkSnippet(t, m, `package snippet

import "tlacache/internal/hierarchy"

func cycles(l hierarchy.Level) int {
	switch l { // planted
	case hierarchy.LevelL1, hierarchy.LevelL2, hierarchy.LevelLLC, hierarchy.LevelVictimCache:
		return 1
	default:
		return 2
	}
}

func name(l hierarchy.Level) string {
	switch l {
	case hierarchy.LevelL1, hierarchy.LevelL2:
		return "core"
	case (hierarchy.LevelLLC), hierarchy.LevelVictimCache, hierarchy.LevelMemory:
		return "uncore"
	}
	return ""
}
`, func(fset *token.FileSet, files []*ast.File, info *types.Info) []finding {
		fds, _ := partialSwitches(fset, files, info, enums)
		return fds
	})
}

// lockViolations reports, in each method of a struct that owns a
// sync.Mutex or sync.RWMutex, every write to a receiver field made
// without recv.mu.Lock() held and every channel send made with it
// held, where a send can block with the lock taken. Tracking is
// lexical: Lock marks the mutex held from that point in source order,
// an Unlock statement clears it, and a deferred Unlock keeps it held to
// the end. RLock does not license a write. Function literals are
// skipped: they run on schedules of their own. It also returns the
// mutex-owning types whose methods it checked.
func lockViolations(fset *token.FileSet, files []*ast.File, info *types.Info) (out []finding, owners []string) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List[0].Names) == 0 {
				continue
			}
			recv := fd.Recv.List[0].Names[0].Name
			t := info.TypeOf(fd.Recv.List[0].Type)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			owner, mu := mutexOwner(t)
			if mu == "" || recv == "_" {
				continue
			}
			if !slices.Contains(owners, owner) {
				owners = append(owners, owner)
			}
			held := false
			write := func(lhs ast.Expr) {
				if field := receiverField(lhs, recv); !held && field != "" && field != mu {
					out = append(out, finding{fset.Position(lhs.Pos()),
						"write to " + owner + "." + field + " without holding " + recv + "." + mu})
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit, *ast.DeferStmt:
					return false
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && receiverField(sel.X, recv) == mu {
						switch sel.Sel.Name {
						case "Lock":
							held = true
						case "Unlock":
							held = false
						}
					}
				case *ast.SendStmt:
					if held {
						out = append(out, finding{fset.Position(n.Pos()),
							"channel send while " + recv + "." + mu + " is held"})
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				}
				return true
			})
		}
	}
	return out, owners
}

// mutexOwner returns the name of a named struct type t and of its first
// sync.Mutex or sync.RWMutex field, or "" for the field when it has
// none.
func mutexOwner(t types.Type) (owner, mu string) {
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", ""
	}
	for i := 0; i < st.NumFields(); i++ {
		switch typeKey(st.Field(i).Type()) {
		case "sync.Mutex", "sync.RWMutex":
			return named.Obj().Name(), st.Field(i).Name()
		}
	}
	return "", ""
}

// receiverField returns the field of recv that e names, looking through
// indexing, dereference and parentheses (recv.jobs[i] names jobs), or
// "" when e is not a receiver field.
func receiverField(e ast.Expr, recv string) string {
	switch e := e.(type) {
	case *ast.IndexExpr:
		return receiverField(e.X, recv)
	case *ast.StarExpr:
		return receiverField(e.X, recv)
	case *ast.ParenExpr:
		return receiverField(e.X, recv)
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok && id.Name == recv {
			return e.Sel.Name
		}
	}
	return ""
}

// lockOwners are the mutex-owning types with methods in the concurrent
// packages; the scan must reach every one of them.
var lockOwners = []string{
	"Reporter", "Collector", // internal/runner
	"Group", "Cache", "histogram", "Server", "Job", "TokenBucket", "Admission", // internal/service/...
}

func TestLockDiscipline(t *testing.T) {
	m := mustLoadModule(t)
	var reached []string
	for _, pkg := range m.pkgs {
		if !inInternal(pkg.path, "runner", "telemetry", "service", "sim", "decision") {
			continue
		}
		fds, owners := lockViolations(m.fset, pkg.files, pkg.info)
		reached = append(reached, owners...)
		for _, fd := range fds {
			t.Error(fd)
		}
	}
	for _, owner := range lockOwners {
		if !slices.Contains(reached, owner) {
			t.Errorf("no method of mutex owner %s was checked (checked %v)", owner, reached)
		}
	}
	checkSnippet(t, m, `package snippet

import (
	"sync"
	"sync/atomic"
)

type reporter struct {
	mu   sync.Mutex
	done int
	n    atomic.Uint64
	ch   chan int
}

func (r *reporter) lockAtTop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done++
}

func (r *reporter) unlocked() {
	r.done = 7 // planted
	r.n.Add(1)
}

func (r *reporter) afterUnlock() {
	r.mu.Lock()
	r.done++
	r.mu.Unlock()
	r.done++ // planted
}

func (r *reporter) send(v int) {
	r.mu.Lock()
	r.ch <- v // planted
	r.mu.Unlock()
	r.ch <- v
}
`, func(fset *token.FileSet, files []*ast.File, info *types.Info) []finding {
		fds, _ := lockViolations(fset, files, info)
		return fds
	})
}
