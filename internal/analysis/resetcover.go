package analysis

import (
	"go/ast"
	"go/types"
	"slices"
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
// (replacement.Policy's ResetState), roping in every module
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
//     the field (h.llc.Reset(), p.lru.ResetState()),
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
	RunModule: runResetcover,
}

const (
	directiveResetcover  = "//tlavet:resetcover"
	directiveResetexempt = "//tlavet:resetexempt"
)

// Touch bits record how a reset set writes one field.
const (
	touchFull      = 1 << iota // complete overwrite of the field (or its elements)
	touchPartial               // write through the field into deeper state
	touchDelegated             // annotated reset method called on the field
)

// resetWrites aggregates what one reset method (plus its same-receiver
// helpers) does to module struct fields.
type resetWrites struct {
	touch     map[string]int  // "<type key>.<field>" → touch bits
	wholesale map[string]bool // type key → whole value overwritten
}

func runResetcover(mp *ModulePass) {
	ix := newCoverIndex(mp, directiveResetexempt)
	g := buildCallGraph(mp.Module)

	// Dedupe (a method can be annotated directly and via an interface)
	// and index the annotated set for delegation matching. The roots
	// arrive sorted, so the methods are checked in a stable order.
	annotated := make(map[*types.Func]bool)
	var methods []*types.Func
	resetOf := make(map[string][]*types.Func) // receiver type key → annotated resets
	for _, fn := range g.annotatedRoots(directiveResetcover) {
		if annotated[fn] {
			continue
		}
		annotated[fn] = true
		key := ix.recvKey(fn)
		if ix.structs[key] == nil {
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
	for _, fn := range methods {
		if node := g.nodes[fn]; node != nil { // nil: declared without a body
			checkResetCoverage(mp, g, ix, annotated, resetOf, node)
		}
	}
}

// checkResetCoverage verifies one annotated reset method against its
// receiver struct and everything tracked through it.
func checkResetCoverage(mp *ModulePass, g *callGraph, ix *coverIndex,
	annotated map[*types.Func]bool, resetOf map[string][]*types.Func, root *cgNode) {
	rootKey := ix.recvKey(root.fn)
	resetName := displayName(root.fn)

	// The body set: the annotated method plus every transitively-called
	// helper method on the same receiver type (h.clearIFetchMemos(),
	// g.Reset()); their writes count as the reset's own.
	body := []*cgNode{root}
	seen := map[*cgNode]bool{root: true}
	for i := 0; i < len(body); i++ {
		for _, cs := range body[i].calls {
			cn := g.nodes[cs.callee]
			if cn != nil && !seen[cn] && ix.recvKey(cn.fn) == rootKey {
				seen[cn] = true
				body = append(body, cn)
			}
		}
	}
	w := &resetWrites{touch: make(map[string]int), wholesale: make(map[string]bool)}
	for _, n := range body {
		scanResetBody(n.pkg, n.decl, ix, annotated, w, g)
	}

	// Judge each field; a struct field with no write of its own and no
	// reset method is reset member-wise, so its type is tracked and its
	// fields are judged in turn.
	ix.walk([]string{rootKey}, func(t *coverType, f *coverField, declChain []string) bool {
		display := t.display + "." + f.name
		touch := w.touch[t.key+"."+f.name]
		switch {
		case f.exempt:
			if touch != 0 {
				mp.Report(f.pos,
					"stale //tlavet:resetexempt: field "+display+" IS reset by "+resetName,
					"drop the exemption or stop resetting the field", declChain)
			}
		case w.wholesale[t.key] || touch&(touchFull|touchDelegated) != 0:
		case ix.structs[f.structKey] == nil:
			mp.Report(f.pos,
				"field "+display+" is never reset by "+resetName+" and has no //tlavet:resetexempt",
				"reset the field in "+resetName+" or annotate //tlavet:resetexempt <reason>",
				declChain)
		case len(resetOf[f.structKey]) > 0:
			helper := displayName(resetOf[f.structKey][0])
			mp.Report(f.pos,
				"field "+display+" has reset method "+helper+" that "+resetName+" never invokes on it",
				"call "+helper+" on the field or annotate //tlavet:resetexempt <reason>",
				declChain)
		default:
			return true
		}
		return false
	})
}

// scanResetBody records every write, wholesale overwrite, and delegated
// reset call in one body of the reset set. Matching is type-based: any
// lvalue whose base chain selects a field of a module struct counts for
// that (type, field) pair regardless of how the value was reached.
func scanResetBody(pkg *Package, decl *ast.FuncDecl, ix *coverIndex,
	annotated map[*types.Func]bool, w *resetWrites, g *callGraph) {
	recordLValue := func(lhs ast.Expr) {
		full := true
		for expr := lhs; ; {
			switch e := expr.(type) {
			case *ast.ParenExpr:
				expr = e.X
			case *ast.IndexExpr:
				expr = e.X
			case *ast.StarExpr:
				expr = e.X
			case *ast.SelectorExpr:
				path := ix.fieldPath(pkg, e)
				for i, fk := range path {
					if full && i == len(path)-1 {
						w.touch[fk] |= touchFull
					} else {
						w.touch[fk] |= touchPartial
					}
				}
				// A complete overwrite of a struct-typed field resets
				// everything beneath it.
				if t, ok := pkg.TypeOfExpr(e); ok && full && len(path) > 0 {
					ix.markWholesale(w.wholesale, ix.keyOf(t), nil)
				}
				full = false
				expr = e.X
			default:
				// `*s = T{}`: a dereferencing overwrite of the whole value.
				if _, deref := lhs.(*ast.StarExpr); deref && full {
					if t, ok := pkg.TypeOfExpr(lhs); ok {
						ix.markWholesale(w.wholesale, ix.keyOf(t), nil)
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
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					recordLValue(lhs)
				}
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
			if !ok || !slices.ContainsFunc(g.callees(pkg, n), func(fn *types.Func) bool { return annotated[fn] }) {
				return true
			}
			// The call resets its receiver: find the field it was reached
			// through (h.llc.Reset() resets field llc; indexing and
			// dereferencing do not change which field is reset).
			recv := sel.X
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
					if path := ix.fieldPath(pkg, e); len(path) > 0 {
						w.touch[path[len(path)-1]] |= touchDelegated
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
	seen := make(map[string]bool)
	var names []string
	for _, fn := range buildCallGraph(m).annotatedRoots(directiveResetcover) {
		if fn.Type().(*types.Signature).Recv() == nil {
			continue
		}
		name := strings.TrimSuffix(displayName(fn), "."+fn.Name())
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
