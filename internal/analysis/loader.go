package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the package's import path (module-relative paths are
	// prefixed with the module path; a fixture loaded with LoadDir uses
	// the path the caller supplied).
	Path string
	// Dir is the directory the package's files live in.
	Dir string
	// Name is the package name from the package clauses.
	Name string
	// Fset positions the package's files (shared module-wide when the
	// package was loaded as part of a Module).
	Fset *token.FileSet
	// Files holds the parsed non-test source files, sorted by filename.
	Files []*ast.File
	// Types and Info hold the go/types results for the package. Info
	// records Types, Defs and Uses, which is what the analyzers read to
	// resolve expressions and identifiers.
	Types *types.Package
	Info  *types.Info
}

// Module is a loaded Go module: every package under the module root,
// parsed and type-checked against a shared FileSet.
type Module struct {
	// Root is the absolute module root directory (where go.mod lives).
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset positions every file in every package.
	Fset *token.FileSet
	// Pkgs lists the loaded packages sorted by import path.
	Pkgs []*Package
}

// skipDir names directories the loader never descends into.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadModule parses and type-checks every package of the module rooted
// at root (the directory containing go.mod). Test files (_test.go) are
// excluded: the analyzers guard production simulator code, and test
// files routinely do things (deliberate panics, counter corruption)
// the analyzers exist to forbid.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("analysis: resolving module root: %w", err)
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, Fset: token.NewFileSet()}

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && includeFile(path, e.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walking module: %w", err)
	}
	sort.Strings(dirs)

	ld := newLoaderState(m)
	for _, dir := range dirs {
		if _, err := ld.loadDir(dir, m.importPath(dir)); err != nil {
			return nil, err
		}
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	return m, nil
}

// LoadDir parses and type-checks the single package in dir, giving it
// the supplied import path. It is how the golden-fixture tests load
// testdata packages: the path chooses which path-scoped analyzers
// apply, and imports are restricted to the standard library.
func LoadDir(dir, path string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: resolving %s: %w", dir, err)
	}
	m := &Module{Root: dir, Path: path, Fset: token.NewFileSet()}
	return newLoaderState(m).loadDir(dir, path)
}

// importPath maps a directory under the module root to its import path.
func (m *Module) importPath(dir string) string {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil || rel == "." {
		return m.Path
	}
	return m.Path + "/" + filepath.ToSlash(rel)
}

// isSourceFile reports whether name is a non-test Go source file.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// includeFile reports whether the loader should parse dir/name. Beyond
// the non-test .go check, it applies the go tool's own exclusion rules
// so that directories with ignored files load instead of failing:
// `_`- and `.`-prefixed files are invisible to builds, and files whose
// build constraints (//go:build tags or _GOOS/_GOARCH suffixes) exclude
// them from the default build context never reach the compiler, so the
// analyzers must not see them either.
func includeFile(dir, name string) bool {
	if !isSourceFile(name) {
		return false
	}
	if strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// loaderState type-checks packages on demand, caching results so each
// package is checked once. Module-internal imports recurse into the
// module's own directories; standard-library imports are satisfied by
// compiled export data from the go build cache when the go tool is
// available (fast), and otherwise by the go/importer source importer,
// which compiles stdlib packages from GOROOT sources (slower but fully
// in-process).
type loaderState struct {
	m       *Module
	std     types.Importer
	byPath  map[string]*Package
	loading map[string]bool
}

func newLoaderState(m *Module) *loaderState {
	return &loaderState{
		m:       m,
		std:     stdImporter(m.Fset),
		byPath:  make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// stdImporter picks the fastest available standard-library importer.
// Only non-module import paths reach it: module-internal imports are
// type-checked from source by the loader itself, so the standard
// library (the module's only external dependency surface) is all this
// importer ever serves.
func stdImporter(fset *token.FileSet) types.Importer {
	if exports, err := stdExports(); err == nil {
		return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok || file == "" {
				return nil, fmt.Errorf("analysis: no export data for %q", path)
			}
			return os.Open(file)
		})
	}
	return importer.ForCompiler(fset, "source", nil)
}

// stdExportsOnce caches the stdlib export-data map for the process:
// the closure is toolchain-wide, not module-specific, so every loaded
// module and fixture shares one `go list` invocation.
var stdExportsOnce = sync.OnceValues(runListStd)

func stdExports() (map[string]string, error) { return stdExportsOnce() }

// runListStd asks the go tool for the export-data files of the whole
// standard library, keyed by import path. One build-cache-backed `go
// list` invocation (~2s warm) replaces ~20s of type-checking the
// net/http dependency chain from GOROOT sources.
func runListStd() (map[string]string, error) {
	out, err := exec.Command("go", "list", "-export", "-json=ImportPath,Export", "std").Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list -export std: %w", err)
	}
	type entry struct {
		ImportPath string
		Export     string
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e entry
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return exports, nil
			}
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
}

// Import implements types.Importer for the type-checker: module-local
// paths load recursively, everything else goes to the stdlib importer.
func (ld *loaderState) Import(path string) (*types.Package, error) {
	if path == ld.m.Path || strings.HasPrefix(path, ld.m.Path+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, ld.m.Path), "/")
		pkg, err := ld.loadDir(filepath.Join(ld.m.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.std.Import(path)
}

// loadDir parses and type-checks the package in dir under import path
// path, memoising the result on the module.
func (ld *loaderState) loadDir(dir, path string) (*Package, error) {
	if pkg, ok := ld.byPath[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading %s: %w", dir, err)
	}
	var files []*ast.File
	name := ""
	for _, e := range ents {
		if e.IsDir() || !includeFile(dir, e.Name()) {
			continue
		}
		f, err := parser.ParseFile(ld.m.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if name == "" {
			name = f.Name.Name
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go source files in %s", dir)
	}

	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.m.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Name: name, Fset: ld.m.Fset, Files: files, Types: tpkg, Info: info}
	ld.byPath[path] = pkg
	ld.m.Pkgs = append(ld.m.Pkgs, pkg)
	return pkg, nil
}
