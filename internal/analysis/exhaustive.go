package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ExhaustiveAnalyzer guards the enum dispatch ladders: a switch over a
// type annotated `//tlavet:exhaustive` must name every package-level
// constant of that type in its cases. A default arm is still permitted
// (out-of-range robustness), but it does NOT satisfy the check —
// the point is that adding a tenth replacement policy, a new inclusion
// mode, or a new job state fails loudly at analysis time in every
// switch that has not considered it, instead of silently falling
// through to a default arm at run time.
//
// The annotation sits on the type declaration:
//
//	// Kind selects a replacement policy implementation.
//	//
//	//tlavet:exhaustive
//	type Kind int
//
// Constants are matched by name and declaring package, so a case arm
// naming a literal value instead of the constant does not count — the
// ladder must dispatch on the declared identifiers it claims to cover.
// A deliberately partial switch is suppressed in place with
// `//tlavet:allow exhaustive <reason>`.
var ExhaustiveAnalyzer = &Analyzer{
	Name: "exhaustive",
	Doc:  "switches over //tlavet:exhaustive enum types name every declared constant",
	Help: "A switch over a //tlavet:exhaustive enum that misses a constant " +
		"silently ignores new variants. Add the missing case, or an explicit " +
		"default that panics with a package-prefixed message.",
	RunModule: runExhaustive,
}

const directiveExhaustive = "//tlavet:exhaustive"

// hasDirective reports whether a comment group carries the given
// bare annotation on a line of its own.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// enumConst is one declared constant of an annotated enum type. The
// key is "<pkg path>.<name>", so cross-package case arms match
// regardless of type-checker object identity.
type enumConst struct {
	name string
	key  string
}

// enumInfo is one annotated enum type with its declared constants.
type enumInfo struct {
	display string      // "pkg.Type"
	consts  []enumConst // in declaration order
}

func runExhaustive(mp *ModulePass) {
	m := mp.Module
	enums := collectEnums(mp)
	if len(enums) == 0 {
		return
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				info, tracked := enums[enumKeyOf(typeOf(pkg, sw.Tag))]
				if !tracked {
					return true
				}
				checkSwitch(mp, pkg, sw, info)
				return true
			})
		}
	}
}

// enumKeyOf returns the "<pkg path>.<type name>" key of a named type,
// "" for anything else.
func enumKeyOf(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// collectEnums finds //tlavet:exhaustive type declarations and their
// package-level constants.
func collectEnums(mp *ModulePass) map[string]*enumInfo {
	enums := make(map[string]*enumInfo)
	for _, pkg := range mp.Module.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if !hasDirective(gd.Doc, directiveExhaustive) && !hasDirective(ts.Doc, directiveExhaustive) {
						continue
					}
					if _, isStruct := ts.Type.(*ast.StructType); isStruct {
						mp.Report(ts.Pos(), "exhaustive annotation on struct type "+ts.Name.Name,
							"annotate enum-like constant types only")
						continue
					}
					key := pkg.Path + "." + ts.Name.Name
					enums[key] = &enumInfo{
						display: pkg.Types.Name() + "." + ts.Name.Name,
					}
				}
			}
		}
	}
	// Second pass: collect every package-level constant whose type is an
	// annotated enum, in declaration order within each package.
	for _, pkg := range mp.Module.Pkgs {
		type namedConst struct {
			name string
			pos  token.Pos
			key  string
		}
		var found []namedConst
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok {
				continue
			}
			key := enumKeyOf(c.Type())
			if _, tracked := enums[key]; !tracked {
				continue
			}
			found = append(found, namedConst{name: name, pos: c.Pos(), key: key})
		}
		sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
		for _, c := range found {
			enums[c.key].consts = append(enums[c.key].consts,
				enumConst{name: c.name, key: pkg.Path + "." + c.name})
		}
	}
	return enums
}

// checkSwitch verifies one switch statement against its enum.
func checkSwitch(mp *ModulePass, pkg *Package, sw *ast.SwitchStmt, info *enumInfo) {
	covered := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			var id *ast.Ident
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			default:
				continue
			}
			c, ok := pkg.Info.Uses[id].(*types.Const)
			if !ok || c.Pkg() == nil {
				continue
			}
			covered[c.Pkg().Path()+"."+c.Name()] = true
		}
	}
	var missing []string
	for _, c := range info.consts {
		if !covered[c.key] {
			missing = append(missing, c.name)
		}
	}
	if len(missing) == 0 {
		return
	}
	mp.Report(sw.Pos(),
		"switch over "+info.display+" is not exhaustive: missing "+strings.Join(missing, ", ")+
			" (a default arm does not satisfy exhaustiveness)",
		"add explicit case arms for the missing constants")
}
