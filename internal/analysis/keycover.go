package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// KeycoverAnalyzer is the static coverage proof behind the cache key
// and the manifest: every field of a covered config struct must be
// written into the annotated encoder's output, or carry an explicit,
// justified exemption. The reflection field-count test
// (TestKeyCoversConfig) can only say "a field was added somewhere";
// keycover pinpoints WHICH field is missing, catches duplicated (dead
// or double-hashed) writes, and reports exemptions that have gone
// stale.
//
// An encoder declares what it covers in its doc comment:
//
//	//tlavet:keycover sim.Config
//
// The named struct and every module-local struct reachable through its
// non-exempt fields (named or embedded; through pointers, slices,
// arrays, and map values) become tracked. A field is covered when the
// encoder's body selects it (cfg.Hierarchy, h.Cores — aliasing through
// local variables works because matching is type-based, and a promoted
// selector covers the embedded field it goes through), or when a whole
// value of its struct
// is passed to a call (marshal mode: json.Marshal(m) covers every
// exported field not tagged `json:"-"`). A field that must not enter
// the output is annotated at its declaration:
//
//	//tlavet:keyexempt <reason>
//
// Findings are reported at the field declaration and carry the call
// chain from the nearest exported function into the encoder, so the
// report shows how the incomplete encoding is reached.
var KeycoverAnalyzer = &Analyzer{
	Name: "keycover",
	Doc:  "every field of a //tlavet:keycover'd struct is encoded or //tlavet:keyexempt'd",
	Help: "The content-addressed result cache is only sound if the cache key " +
		"covers every result-affecting field. Encode the new field in the " +
		"annotated encoder (and bump the key version), or annotate it " +
		"//tlavet:keyexempt <reason> when it cannot affect results.",
	RunModule: runKeycover,
}

const (
	directiveKeycover  = "//tlavet:keycover"
	directiveKeyexempt = "//tlavet:keyexempt"
)

func runKeycover(mp *ModulePass) {
	m := mp.Module
	ix := newCoverIndex(mp, directiveKeyexempt)
	g := buildCallGraph(m)

	// Gather annotated encoders in deterministic order.
	type target struct {
		pkg  *Package
		decl *ast.FuncDecl
		fn   *types.Func
		refs []string
		pos  token.Pos
	}
	var targets []target
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil || fd.Body == nil {
					continue
				}
				var refs []string
				var dirPos token.Pos
				for _, c := range fd.Doc.List {
					rest, ok := strings.CutPrefix(c.Text, directiveKeycover)
					if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
						continue
					}
					args := strings.Fields(rest)
					if len(args) == 0 {
						mp.Report(fd.Name.Pos(), "keycover directive names no type",
							"write //tlavet:keycover <Type> or <pkg>.<Type>", nil)
						continue
					}
					refs = append(refs, args...)
					dirPos = c.Pos()
				}
				if len(refs) == 0 {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				targets = append(targets, target{pkg: pkg, decl: fd, fn: canonical(fn), refs: refs, pos: dirPos})
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].pos < targets[j].pos })

	for _, t := range targets {
		chain := entryChain(g, t.fn)
		// Resolve the directive's type references against the module.
		var roots []string
		for _, ref := range t.refs {
			key, err := resolveTypeRef(m, t.pkg, ref)
			if err != "" {
				mp.Report(t.decl.Name.Pos(), err, "name a struct type declared in this module", chain)
				continue
			}
			if ix.structs[key] == nil {
				mp.Report(t.decl.Name.Pos(), "keycover target "+ref+" is not a struct type",
					"name a struct type declared in this module", chain)
				continue
			}
			roots = append(roots, key)
		}
		if len(roots) == 0 {
			continue
		}
		checkCoverage(mp, ix, t.pkg, t.decl, displayName(t.fn), roots, chain)
	}
}

// entryChain returns the shortest call chain from an exported module
// function into fn (fn last), for attaching to coverage findings. When
// nothing exported reaches fn the chain is just fn itself.
func entryChain(g *callGraph, fn *types.Func) []string {
	chains := g.chainsToSinks([]*types.Func{fn})
	var best []string
	for n, c := range chains {
		if !n.fn.Exported() {
			continue
		}
		if best == nil || len(c) < len(best) ||
			(len(c) == len(best) && c[0] < best[0]) {
			best = c
		}
	}
	if best == nil {
		return []string{displayName(fn)}
	}
	return best
}

// resolveTypeRef resolves "[pkg.]Type" to a type key. The package part
// matches a module package NAME (not path), the first by import path
// when several share it; unqualified references resolve in the
// annotated function's own package. The second return is a non-empty
// error message when resolution fails.
func resolveTypeRef(m *Module, pkg *Package, ref string) (string, string) {
	pkgName, typeName, ok := strings.Cut(ref, ".")
	if !ok {
		return pkg.Path + "." + ref, ""
	}
	for _, p := range m.Pkgs {
		if p.Types.Name() == pkgName {
			return p.Path + "." + typeName, ""
		}
	}
	return "", "keycover: no module package named " + pkgName + " (in " + ref + ")"
}

// checkCoverage verifies one encoder against the types tracked from
// roots: each field must be selected by the encoder's body or reached
// by a whole value passed to a call, and a leaf field selected twice is
// a dead or double-encoded write.
func checkCoverage(mp *ModulePass, ix *coverIndex, pkg *Package,
	decl *ast.FuncDecl, encoder string, roots []string, chain []string) {
	tracked := ix.walk(roots, func(_ *coverType, f *coverField, _ []string) bool { return !f.exempt })

	sites := make(map[string][]token.Pos) // "<type key>.<field>" → selector occurrences
	wholesale := make(map[string]bool)    // type key → whole value passed to a call
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			for _, fk := range ix.fieldPath(pkg, n) {
				sites[fk] = append(sites[fk], n.Sel.Pos())
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if t, ok := pkg.TypeOfExpr(arg); ok && tracked[ix.keyOf(t)] {
					ix.markWholesale(wholesale, ix.keyOf(t), func(f *coverField) bool {
						return f.exported && !f.jsonSkip && !f.exempt
					})
				}
			}
		}
		return true
	})

	ix.walk(roots, func(t *coverType, f *coverField, _ []string) bool {
		display := t.display + "." + f.name
		s := sites[t.key+"."+f.name]
		switch {
		case f.exempt:
			// Only an explicit selector write contradicts an exemption;
			// wholesale marshalling by a different encoder does not make
			// the canonical-form exemption stale.
			if len(s) > 0 {
				mp.Report(f.pos,
					"stale //tlavet:keyexempt: field "+display+" IS written by "+encoder,
					"drop the exemption or stop encoding the field", chain)
			}
			return false
		case len(s) == 0 && !(wholesale[t.key] && f.exported && !f.jsonSkip):
			mp.Report(f.pos,
				"field "+display+" is never written by "+encoder+
					" and has no //tlavet:keyexempt (via "+strings.Join(chain, " → ")+")",
				"encode the field (and bump the key/schema version) or annotate //tlavet:keyexempt <reason>",
				chain)
		case len(s) > 1 && ix.structs[f.structKey] == nil:
			// Duplicate writes are only meaningful for leaves: a struct
			// field is legitimately selected once per nested field
			// (cfg.CPU.Width, cfg.CPU.ROB…).
			mp.Report(s[1],
				"field "+display+" is written "+strconv.Itoa(len(s))+" times by "+encoder+
					": the extra write is dead or double-encodes the field",
				"encode each field exactly once", chain)
		}
		return true
	})
}
