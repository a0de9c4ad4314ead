package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ResetcoverAnalyzer is the static completeness proof behind state
// pooling: every field of a reset method's receiver must be restored by
// the method, or carry an explicit, justified exemption. The dynamic
// counterpart (TestResetEquivalence, TestResetStateEquivalence) proves
// the reset methods restore freshly-constructed state byte-for-byte for
// the configurations they run; resetcover proves no field can be
// FORGOTTEN — a new field added to a pooled type fails the build until
// the reset method handles it or its author justifies why reuse cannot
// observe it.
//
// A reset method declares itself in its doc comment:
//
//	//tlavet:resetcover
//
// The directive is also valid on an interface method declaration
// (replacement.StateResetter's ResetState), roping in every module
// implementation. Each annotated method's receiver struct — and every
// module-local struct reached through its non-exempt, non-delegated
// fields, through pointers, slices, arrays, maps, and embedded types —
// must have each field covered by one of:
//
//   - a wholesale overwrite (`*s = T{}`),
//   - a direct write (assignment, clear(), slice truncation — on the
//     method or a transitively-called helper with the same receiver
//     type; matching is type-based, so aliasing works),
//   - a delegated reset: calling another //tlavet:resetcover method on
//     the field (h.llc.Reset(), p.LRUStack.ResetState()),
//   - a `//tlavet:resetexempt <reason>` at the field declaration.
//
// Distinct findings separate a field that is never reset, an exemption
// gone stale (the field IS reset), and an unreachable reset helper (the
// field's type has an annotated reset method the parent never invokes).
var ResetcoverAnalyzer = &Analyzer{
	Name: "resetcover",
	Doc:  "every field of a //tlavet:resetcover'd receiver is restored or //tlavet:resetexempt'd",
	Help: "Pooled state is only reusable if its reset method restores every field. " +
		"Reset the new field in the annotated method (directly, via *s = T{}, or by " +
		"delegating to a //tlavet:resetcover method of the field's type), or annotate " +
		"the field //tlavet:resetexempt <reason> when reuse cannot observe it.",
	Default:   true,
	RunModule: runResetcover,
}

const (
	directiveResetcover  = "//tlavet:resetcover"
	directiveResetexempt = "//tlavet:resetexempt"
)

// scField is one struct field as seen at its declaration, for the
// resetcover prover. Embedded fields are included under their implicit
// name.
type scField struct {
	name      string
	pos       token.Pos
	exempt    bool
	exemptPos token.Pos
	// structKey is the tracked-type key of the field's (unwrapped)
	// struct type when it is declared in this module, else "".
	structKey string
}

// scType is one module-declared struct type, keyed like kcType by
// "<pkg path>.<type name>".
type scType struct {
	key     string
	display string
	fields  []*scField
}

// collectCoverIndex indexes every struct type declared in the module,
// reading the given field-exemption directive at each declaration.
// Reasonless exemptions are reported and exempt nothing.
func collectCoverIndex(mp *ModulePass, exemptDirective string) map[string]*scType {
	m := mp.Module
	modulePkgs := modulePackageSet(m)
	structs := make(map[string]*scType)
	for _, pkg := range m.Pkgs {
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
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					kt := &scType{
						key:     pkg.Path + "." + ts.Name.Name,
						display: pkg.Types.Name() + "." + ts.Name.Name,
					}
					for _, field := range st.Fields.List {
						exempt, exemptPos := scFieldExemption(mp, field, exemptDirective)
						var structKey string
						if t, ok := pkg.TypeOfExpr(field.Type); ok {
							structKey = structKeyOf(t, modulePkgs)
						}
						if len(field.Names) == 0 {
							// Embedded field: named after its (unwrapped) type.
							name := embeddedFieldName(field.Type)
							if name == "" {
								continue
							}
							kt.fields = append(kt.fields, &scField{
								name: name, pos: field.Type.Pos(),
								exempt: exempt, exemptPos: exemptPos,
								structKey: structKey,
							})
							continue
						}
						for _, name := range field.Names {
							kt.fields = append(kt.fields, &scField{
								name: name.Name, pos: name.Pos(),
								exempt: exempt, exemptPos: exemptPos,
								structKey: structKey,
							})
						}
					}
					structs[kt.key] = kt
				}
			}
		}
	}
	return structs
}

// scFieldExemption scans a field's doc and line comments for the given
// `//tlavet:<check>exempt <reason>` directive.
func scFieldExemption(mp *ModulePass, field *ast.Field, directive string) (bool, token.Pos) {
	short := strings.TrimPrefix(directive, "//tlavet:")
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directive)
			if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
				continue
			}
			if len(strings.Fields(rest)) == 0 {
				mp.Report(field.Pos(), short+" directive has no reason",
					"write "+directive+" <reason> so exemptions stay auditable", nil)
				continue
			}
			return true, c.Pos()
		}
	}
	return false, token.NoPos
}

// embeddedFieldName derives the implicit field name of an embedded
// type: the final identifier of the (possibly pointered, possibly
// package-qualified) type expression.
func embeddedFieldName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return embeddedFieldName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return embeddedFieldName(e.X)
	case *ast.IndexListExpr:
		return embeddedFieldName(e.X)
	}
	return ""
}

// modulePackageSet returns the module's package paths as a set, the
// form structKeyOf consumes.
func modulePackageSet(m *Module) map[string]bool {
	pkgs := make(map[string]bool, len(m.Pkgs))
	for _, p := range m.Pkgs {
		pkgs[p.Path] = true
	}
	return pkgs
}

// recvStructKey returns the tracked-type key of fn's receiver struct,
// or "" when fn is not a method on a module-local named struct.
func recvStructKey(fn *types.Func, modulePkgs map[string]bool) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return structKeyOf(sig.Recv().Type(), modulePkgs)
}

// rcWrites aggregates what one reset method (plus its same-receiver
// helpers) does, keyed by tracked-type key then field name.
type rcWrites struct {
	full      map[string]map[string]token.Pos // complete overwrite of the field (or its elements)
	partial   map[string]map[string]bool      // write through the field into deeper state
	delegated map[string]map[string]bool      // annotated reset method called on the field
	wholesale map[string]bool                 // whole value of the type overwritten
}

func newRCWrites() *rcWrites {
	return &rcWrites{
		full:      make(map[string]map[string]token.Pos),
		partial:   make(map[string]map[string]bool),
		delegated: make(map[string]map[string]bool),
		wholesale: make(map[string]bool),
	}
}

func (w *rcWrites) markFull(key, field string, pos token.Pos) {
	if w.full[key] == nil {
		w.full[key] = make(map[string]token.Pos)
	}
	if _, ok := w.full[key][field]; !ok {
		w.full[key][field] = pos
	}
}

func (w *rcWrites) markPartial(key, field string) {
	if w.partial[key] == nil {
		w.partial[key] = make(map[string]bool)
	}
	w.partial[key][field] = true
}

func (w *rcWrites) markDelegated(key, field string) {
	if w.delegated[key] == nil {
		w.delegated[key] = make(map[string]bool)
	}
	w.delegated[key][field] = true
}

// markWholesaleType marks key and, transitively, the struct types of
// its fields as wholly overwritten: assigning a complete value resets
// every field, including nested structs.
func (w *rcWrites) markWholesaleType(structs map[string]*scType, key string) {
	if key == "" || w.wholesale[key] {
		return
	}
	w.wholesale[key] = true
	kt, ok := structs[key]
	if !ok {
		return
	}
	for _, f := range kt.fields {
		if f.structKey != "" {
			w.markWholesaleType(structs, f.structKey)
		}
	}
}

func runResetcover(mp *ModulePass) {
	m := mp.Module
	modulePkgs := modulePackageSet(m)
	structs := collectCoverIndex(mp, directiveResetexempt)
	g := buildCallGraph(m)

	roots := g.annotatedRoots(directiveResetcover)
	if len(roots) == 0 {
		return
	}
	// Dedupe (a method can be annotated directly and via an interface)
	// and index the annotated set for delegation matching.
	annotated := make(map[*types.Func]bool)
	var methods []*types.Func
	resetOf := make(map[string][]*types.Func) // receiver type key → annotated resets
	for _, fn := range roots {
		if annotated[fn] {
			continue
		}
		annotated[fn] = true
		key := recvStructKey(fn, modulePkgs)
		if key == "" || structs[key] == nil {
			pos := fn.Pos()
			if n := g.nodes[fn]; n != nil {
				pos = n.decl.Name.Pos()
			}
			mp.Report(pos, "resetcover on "+displayName(fn)+", which is not a method on a module struct",
				"annotate a method whose receiver is a struct declared in this module", nil)
			continue
		}
		methods = append(methods, fn)
		resetOf[key] = append(resetOf[key], fn)
	}
	sort.Slice(methods, func(i, j int) bool {
		a, b := displayName(methods[i]), displayName(methods[j])
		if a != b {
			return a < b
		}
		return methods[i].Pos() < methods[j].Pos()
	})

	for _, fn := range methods {
		node := g.nodes[fn]
		if node == nil {
			continue // declared without a body (external linkname etc.)
		}
		checkResetCoverage(mp, g, structs, modulePkgs, annotated, resetOf, node,
			recvStructKey(fn, modulePkgs))
	}
}

// checkResetCoverage verifies one annotated reset method against its
// receiver struct and everything tracked through it.
func checkResetCoverage(mp *ModulePass, g *callGraph, structs map[string]*scType,
	modulePkgs map[string]bool, annotated map[*types.Func]bool,
	resetOf map[string][]*types.Func, root *cgNode, rootKey string) {

	resetName := displayName(root.fn)

	// The body set: the annotated method plus every transitively-called
	// helper method on the same receiver type (h.clearIFetchMemos(),
	// c.setPolicy(), g.Reset()); their writes count as the reset's own.
	body := []*cgNode{root}
	seen := map[*cgNode]bool{root: true}
	for i := 0; i < len(body); i++ {
		for _, cs := range body[i].calls {
			cn := g.nodes[cs.callee]
			if cn == nil || seen[cn] {
				continue
			}
			if recvStructKey(cn.fn, modulePkgs) != rootKey {
				continue
			}
			seen[cn] = true
			body = append(body, cn)
		}
	}

	w := newRCWrites()
	for _, n := range body {
		scanResetBody(n.pkg, n.decl, modulePkgs, annotated, w, structs, g)
	}

	// Expand the tracked set and judge each field. trackedVia carries
	// the declaration chain from the receiver down to each tracked type.
	type item struct {
		key string
		via []string
	}
	tracked := map[string]bool{}
	queue := []item{{key: rootKey, via: []string{structs[rootKey].display}}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if tracked[it.key] {
			continue
		}
		tracked[it.key] = true
		kt := structs[it.key]
		for _, f := range kt.fields {
			display := kt.display + "." + f.name
			declChain := append(append([]string(nil), it.via...), display)
			_, hasFull := w.full[it.key][f.name]
			anyWrite := hasFull || w.partial[it.key][f.name] || w.delegated[it.key][f.name]
			if f.exempt {
				if anyWrite {
					mp.Report(f.pos,
						"stale //tlavet:resetexempt: field "+display+" IS reset by "+resetName,
						"drop the exemption or stop resetting the field", declChain)
				}
				continue
			}
			if w.wholesale[it.key] || w.delegated[it.key][f.name] || hasFull {
				continue
			}
			if f.structKey != "" && structs[f.structKey] != nil {
				if helpers := resetOf[f.structKey]; len(helpers) > 0 {
					mp.Report(f.pos,
						"field "+display+" has reset method "+displayName(helpers[0])+
							" that "+resetName+" never invokes on it",
						"call "+displayName(helpers[0])+" on the field or annotate //tlavet:resetexempt <reason>",
						declChain)
					continue
				}
				// Member-wise reset: track the field's struct type; its own
				// fields are judged individually below.
				queue = append(queue, item{key: f.structKey, via: declChain})
				continue
			}
			mp.Report(f.pos,
				"field "+display+" is never reset by "+resetName+" and has no //tlavet:resetexempt",
				"reset the field in "+resetName+" or annotate //tlavet:resetexempt <reason>",
				declChain)
		}
	}
}

// scanResetBody records every write, wholesale overwrite, and delegated
// reset call in one body of the reset set. Matching is type-based: any
// lvalue whose base chain selects a field of a module struct counts for
// that (type, field) pair regardless of how the value was reached.
func scanResetBody(pkg *Package, decl *ast.FuncDecl, modulePkgs map[string]bool,
	annotated map[*types.Func]bool, w *rcWrites, structs map[string]*scType, g *callGraph) {

	recordLValue := func(expr ast.Expr) {
		orig := expr
		full := true
		for {
			switch e := expr.(type) {
			case *ast.ParenExpr:
				expr = e.X
			case *ast.IndexExpr:
				expr = e.X
			case *ast.StarExpr:
				expr = e.X
			case *ast.SelectorExpr:
				if t, ok := pkg.TypeOfExpr(e.X); ok {
					if key := structKeyOf(t, modulePkgs); key != "" {
						if full {
							w.markFull(key, e.Sel.Name, e.Sel.Pos())
							// A complete overwrite of a struct-typed field
							// resets everything beneath it.
							if vt, ok := pkg.TypeOfExpr(e); ok {
								w.markWholesaleType(structs, structKeyOf(vt, modulePkgs))
							}
						} else {
							w.markPartial(key, e.Sel.Name)
						}
					}
				}
				full = false
				expr = e.X
			default:
				// `*s = T{}`: a dereferencing overwrite of the whole value.
				if _, deref := orig.(*ast.StarExpr); deref && full {
					if t, ok := pkg.TypeOfExpr(orig); ok {
						w.markWholesaleType(structs, structKeyOf(t, modulePkgs))
					}
				}
				return
			}
		}
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				recordLValue(lhs)
			}
		case *ast.IncDecStmt:
			recordLValue(n.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "clear" && len(n.Args) == 1 {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					recordLValue(n.Args[0])
					return true
				}
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			delegates := false
			for _, callee := range g.callees(pkg, n) {
				if annotated[callee] {
					delegates = true
					break
				}
			}
			if !delegates {
				return true
			}
			// The call resets its receiver: find the field it was reached
			// through (h.llc.Reset() resets field llc; indexing and
			// dereferencing do not change which field is reset).
			recv := ast.Unparen(sel.X)
			for {
				switch e := recv.(type) {
				case *ast.ParenExpr:
					recv = e.X
					continue
				case *ast.IndexExpr:
					recv = e.X
					continue
				case *ast.StarExpr:
					recv = e.X
					continue
				case *ast.SelectorExpr:
					if t, ok := pkg.TypeOfExpr(e.X); ok {
						if key := structKeyOf(t, modulePkgs); key != "" {
							w.markDelegated(key, e.Sel.Name)
						}
					}
				}
				break
			}
		}
		return true
	})
}

// ResetcoverTargets exposes the receiver types of the module's
// //tlavet:resetcover methods, display-rendered ("pkg.Type"), sorted
// and deduplicated — for the static/dynamic reset-proof cross-check.
func ResetcoverTargets(m *Module) []string {
	g := buildCallGraph(m)
	modulePkgs := modulePackageSet(m)
	seen := make(map[string]bool)
	var names []string
	for _, fn := range g.annotatedRoots(directiveResetcover) {
		key := recvStructKey(fn, modulePkgs)
		if key == "" {
			continue
		}
		sig := fn.Type().(*types.Signature)
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		name := named.Obj().Pkg().Name() + "." + named.Obj().Name()
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
