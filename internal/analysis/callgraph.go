package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds tlavet's module-wide call graph, the foundation of
// detflow's interprocedural reach: chainsToSinks walks it backwards
// from the //tlavet:detsink functions, so detflow knows every function
// that can reach a deterministic-output sink and by which call chain.
// The graph is conservative in the direction that check needs: an edge
// is added whenever a call MIGHT reach a function, so the set of
// sink-reaching functions over-approximates and a clean report really
// means clean.
//
// Resolution covers the three call shapes the simulator uses:
//
//   - direct calls to package-level functions and concrete methods;
//   - interface method calls, resolved by implements-matching: an edge
//     is added to every method of every named type in the module whose
//     (pointer) method set satisfies the interface — this is how a call
//     through telemetry.DecisionTracer fans out to the decision-trace
//     writers, which are sinks;
//   - function literals, whose bodies are attributed to the enclosing
//     declared function (a closure runs at most where its creator could
//     run, so this keeps the graph conservative without modelling
//     function values).
//
// Calls through function-typed variables other than literals (stored
// callbacks) are not resolved. To keep that gap from hiding hand-offs,
// a REFERENCE edge is added whenever a function or method name is
// mentioned in non-call position (a method value stored in a variable,
// a function passed as an argument, a generic function instantiated
// for later use): if F references G, G is treated as callable wherever
// F runs. Reference-only targets are also recorded per node
// (cgNode.refs) so detflow can attribute dynamic calls inside
// nondeterministic regions to the functions the enclosing body
// actually took a reference to.

// callSite is one resolved call edge.
type callSite struct {
	callee *types.Func
	pos    token.Pos
}

// cgNode is one declared function in the call graph.
type cgNode struct {
	fn    *types.Func
	decl  *ast.FuncDecl
	pkg   *Package
	calls []callSite
	// refs lists module functions referenced in non-call position within
	// this body (method values, callback arguments, instantiations), in
	// source order. Each ref also appears in calls as a conservative
	// edge.
	refs []*types.Func
}

// callGraph is the module-wide call graph, keyed by the canonical
// (generic-origin) *types.Func of each declared function.
type callGraph struct {
	module *Module
	nodes  map[*types.Func]*cgNode
	// namedTypes lists every named (non-interface) type declared in the
	// module, for implements-matching.
	namedTypes []*types.Named
}

// buildCallGraph constructs the call graph of every non-test function
// declared in m.
func buildCallGraph(m *Module) *callGraph {
	g := &callGraph{module: m, nodes: make(map[*types.Func]*cgNode)}
	g.collectNamedTypes()

	// First pass: one node per declared function, so edge resolution can
	// recognise module-internal callees.
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.nodes[canonical(fn)] = &cgNode{fn: canonical(fn), decl: fd, pkg: pkg}
				}
			}
		}
	}
	// Second pass: resolve the calls in each body.
	for _, n := range g.nodes {
		g.resolveCalls(n)
	}
	return g
}

// canonical maps an instantiated generic function or method back to its
// declared origin, so each declaration is a single graph node.
func canonical(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// collectNamedTypes gathers the module's named non-interface types.
func (g *callGraph) collectNamedTypes() {
	for _, pkg := range g.module.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
	}
	sort.Slice(g.namedTypes, func(i, j int) bool {
		return g.namedTypes[i].Obj().Id() < g.namedTypes[j].Obj().Id()
	})
}

// resolveCalls walks n's body (function literals included) and records
// every call edge it can resolve, plus a reference edge for every
// function or method name used in non-call position.
func (g *callGraph) resolveCalls(n *cgNode) {
	// handled marks expressions already consumed as the Fun of a call or
	// as part of a processed selector, so the reference pass below does
	// not double-count them (a duplicate edge would be harmless, but the
	// refs list feeds diagnostics and should reflect true references).
	handled := make(map[ast.Node]bool)
	ast.Inspect(n.decl, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			for _, callee := range g.callees(n.pkg, node) {
				n.calls = append(n.calls, callSite{callee: callee, pos: node.Pos()})
			}
			fun := ast.Unparen(node.Fun)
			handled[fun] = true
			// An instantiation in call position (Map[int](x)) wraps the
			// name in an index expression; the name itself is handled.
			if ix, ok := fun.(*ast.IndexExpr); ok {
				handled[ast.Unparen(ix.X)] = true
			}
			if ix, ok := fun.(*ast.IndexListExpr); ok {
				handled[ast.Unparen(ix.X)] = true
			}
		case *ast.SelectorExpr:
			if handled[node] {
				handled[node.Sel] = true
				return true
			}
			handled[node.Sel] = true
			for _, fn := range g.refTargets(n.pkg, node) {
				n.calls = append(n.calls, callSite{callee: fn, pos: node.Pos()})
				n.refs = append(n.refs, fn)
			}
		case *ast.Ident:
			if handled[node] {
				return true
			}
			if fn, ok := n.pkg.Info.Uses[node].(*types.Func); ok {
				// Only module-declared functions matter; stdlib references
				// have no node and would be dropped by reachability anyway.
				c := canonical(fn)
				if _, declared := g.nodes[c]; declared {
					n.calls = append(n.calls, callSite{callee: c, pos: node.Pos()})
					n.refs = append(n.refs, c)
				}
			}
		}
		return true
	})
}

// refTargets resolves a non-call use of a method or package-qualified
// function name: a method value (w.Decision), a method expression
// (T.Method), or a function mentioned as a value (pkg.Fn). Interface
// method values fan out to every implementing module type, mirroring
// callees.
func (g *callGraph) refTargets(pkg *Package, sel *ast.SelectorExpr) []*types.Func {
	if s, ok := pkg.Info.Selections[sel]; ok {
		if s.Kind() != types.MethodVal && s.Kind() != types.MethodExpr {
			return nil
		}
		m := s.Obj().(*types.Func)
		if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
			return g.implementers(iface, m.Name())
		}
		return []*types.Func{canonical(m)}
	}
	if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok {
		c := canonical(fn)
		if _, declared := g.nodes[c]; declared {
			return []*types.Func{c}
		}
	}
	return nil
}

// callees resolves one call expression to the module functions it may
// invoke (empty for builtins, conversions, stdlib calls, and dynamic
// calls through function values).
func (g *callGraph) callees(pkg *Package, call *ast.CallExpr) []*types.Func {
	fn := ast.Unparen(call.Fun)
	// An explicitly instantiated generic call (apply[int](x)) wraps the
	// function name in an index expression; resolve the name itself.
	switch ix := fn.(type) {
	case *ast.IndexExpr:
		fn = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fn = ast.Unparen(ix.X)
	}
	switch fun := fn.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*types.Func{canonical(fn)}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m := sel.Obj().(*types.Func)
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return g.implementers(iface, m.Name())
			}
			return []*types.Func{canonical(m)}
		}
		// Package-qualified call (pkg.Fn): no Selection entry, but the
		// selector identifier resolves directly.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{canonical(fn)}
		}
	}
	return nil
}

// implementers returns, for an interface method call, the named method
// of every module type whose pointer method set satisfies the
// interface. Matching the whole interface (not just the one method)
// keeps the fan-out to types that can actually flow into the call.
func (g *callGraph) implementers(iface *types.Interface, method string) []*types.Func {
	var out []*types.Func
	for _, named := range g.namedTypes {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		if m := methodByName(named, method); m != nil {
			out = append(out, canonical(m))
		}
	}
	return out
}

// methodByName finds a (possibly promoted) method in named's pointer
// method set.
func methodByName(named *types.Named, name string) *types.Func {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Name() == name {
			return fn
		}
	}
	return nil
}

// displayName renders fn for call chains:
// "pkg.Func" for package functions, "pkg.Recv.Method" for methods.
func displayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

func sortNodes(ns []*cgNode) {
	sort.Slice(ns, func(i, j int) bool {
		a, b := displayName(ns[i].fn), displayName(ns[j].fn)
		if a != b {
			return a < b
		}
		return ns[i].fn.Pos() < ns[j].fn.Pos()
	})
}

// directiveDetSink marks a deterministic-output sink: a function whose
// output bytes are part of the byte-determinism contract.
const directiveDetSink = "//tlavet:detsink"

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

// annotatedFuncs collects the module's functions annotated with the
// given directive: function declarations whose doc comment contains it,
// plus — for annotated interface methods — every module method that
// implements the annotated interface (annotating
// telemetry.DecisionTracer's Decision would take in every tracer's
// Decision).
func (g *callGraph) annotatedFuncs(directive string) []*types.Func {
	var fns []*types.Func
	for _, pkg := range g.module.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !hasDirective(d.Doc, directive) {
						continue
					}
					if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						fns = append(fns, canonical(fn))
					}
				case *ast.GenDecl:
					fns = append(fns, g.annotatedMethods(pkg, d, directive)...)
				}
			}
		}
	}
	sort.Slice(fns, func(i, j int) bool {
		a, b := displayName(fns[i]), displayName(fns[j])
		if a != b {
			return a < b
		}
		return fns[i].Pos() < fns[j].Pos()
	})
	return fns
}

// annotatedMethods expands directive annotations on interface method
// declarations into the concrete implementing methods.
func (g *callGraph) annotatedMethods(pkg *Package, d *ast.GenDecl, directive string) []*types.Func {
	var fns []*types.Func
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		it, ok := ts.Type.(*ast.InterfaceType)
		if !ok {
			continue
		}
		ifaceType, ok := pkg.TypeOfExpr(ts.Type)
		if !ok {
			continue
		}
		iface, ok := ifaceType.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, field := range it.Methods.List {
			if !hasDirective(field.Doc, directive) || len(field.Names) == 0 {
				continue
			}
			fns = append(fns, g.implementers(iface, field.Names[0].Name)...)
		}
	}
	return fns
}

// chainsToSinks runs a reverse multi-source BFS from sinks and returns,
// for every function that can reach one, the shortest function→sink
// call path (function first, sink last, rendered with displayName).
// It is a breadth-first search of the transposed graph: it asks what
// can reach a sink.
func (g *callGraph) chainsToSinks(sinks []*types.Func) map[*cgNode][]string {
	// Transpose: callee → callers, caller lists sorted for determinism.
	callers := make(map[*cgNode][]*cgNode)
	nodes := make([]*cgNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		nodes = append(nodes, n)
	}
	sortNodes(nodes)
	for _, n := range nodes {
		seenCallee := make(map[*cgNode]bool)
		for _, cs := range n.calls {
			cn := g.nodes[cs.callee]
			if cn == nil || seenCallee[cn] {
				continue
			}
			seenCallee[cn] = true
			callers[cn] = append(callers[cn], n)
		}
	}
	chains := make(map[*cgNode][]string)
	frontier := make([]*cgNode, 0, len(sinks))
	seen := make(map[*cgNode]bool)
	for _, s := range sinks {
		if n := g.nodes[canonical(s)]; n != nil && !seen[n] {
			seen[n] = true
			chains[n] = []string{displayName(n.fn)}
			frontier = append(frontier, n)
		}
	}
	sortNodes(frontier)
	for len(frontier) > 0 {
		var next []*cgNode
		for _, n := range frontier {
			for _, c := range callers[n] {
				if seen[c] {
					continue
				}
				seen[c] = true
				chain := make([]string, 0, len(chains[n])+1)
				chain = append(chain, displayName(c.fn))
				chain = append(chain, chains[n]...)
				chains[c] = chain
				next = append(next, c)
			}
		}
		sortNodes(next)
		frontier = next
	}
	return chains
}

// TypeOfExpr resolves the static type of e, reporting success.
func (p *Package) TypeOfExpr(e ast.Expr) (types.Type, bool) {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type, true
	}
	return nil, false
}
