package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// DetflowAnalyzer enforces the byte-determinism contract: identical
// (config, seed) inputs must yield byte-identical manifests, decision
// traces, and cache keys. It works at two depths.
//
// In the simulation packages, whose behaviour must be a pure function of
// (configuration, seed), the sources themselves are banned: no wall
// clock, no math/rand (imported under any alias), and no map or sync.Map
// iteration whose body mutates state or appends to output.
//
// Everywhere in the module, detflow tracks nondeterministic VALUES and
// ORDERINGS and reports when they flow into a deterministic-output sink
// — a function annotated `//tlavet:detsink` (the manifest encoder, the
// canonical cache-key renderer, the decision and telemetry writers, the
// report formatters).
//
// Sources are the four ways Go programs pick up run-to-run variation:
//
//   - map and sync.Map iteration order (randomised by the runtime);
//   - wall-clock reads (time.Now / time.Since / time.Until);
//   - math/rand values (globally seeded, not replayable);
//   - scheduling order: multi-case select arbitration and the
//     completion order of goroutines spawned in a loop.
//
// A diagnostic fires when a sink-reaching call happens inside a
// nondeterministically-ordered region, or a tainted value is passed to
// a sink-reaching call. Every finding carries the function→sink call
// chain so the report explains WHERE the bytes end up, and suggests the
// canonical fix: collect, sort, then emit.
//
// The taint engine is function-local by design: values escaping through
// struct fields or returns are not followed (service.Execute recording
// WallSeconds into the manifest is the intended example — wall time is
// an annotation of the execution, not simulated output). Taint cleared
// by an explicit sort (sort.* / slices.Sort*) is considered laundered.
var DetflowAnalyzer = &Analyzer{
	Name: "detflow",
	Doc:  "no nondeterministic value or ordering may flow into a //tlavet:detsink function, nor arise in a simulation package",
	Help: "A //tlavet:detsink function's output bytes are part of the " +
		"determinism contract. Remove the tainted source (map iteration " +
		"order, channel select, time) from the dataflow, or sort/serialise " +
		"the value before it reaches the sink. Simulation packages may not " +
		"read the wall clock or math/rand, nor mutate state in map order: " +
		"use the seeded generators and iterate over sorted keys.",
	RunModule: runDetflow,
}

// simPackages lists the internal packages whose behaviour must be a
// pure function of (configuration, seed).
var simPackages = []string{"cache", "hierarchy", "sim", "replacement", "cpu", "trace"}

func runDetflow(mp *ModulePass) {
	for _, pkg := range mp.Module.Pkgs {
		if pathInPackages(pkg.Path, simPackages...) {
			banSources(mp, pkg)
		}
	}
	g := buildCallGraph(mp.Module)
	sinks := g.annotatedFuncs(directiveDetSink)
	if len(sinks) == 0 {
		return
	}
	chains := g.chainsToSinks(sinks)
	nodes := make([]*cgNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		nodes = append(nodes, n)
	}
	sortNodes(nodes)
	for _, n := range nodes {
		scanDetflow(mp, g, n, chains)
	}
}

const randSuggestion = "use the repository's deterministic SplitMix64 rng (internal/trace) seeded from the run config"

// banSources reports every nondeterministic source in one simulation
// package: math/rand imports and uses, wall-clock reads, sync.Map
// iteration, and state-mutating map iteration.
func banSources(mp *ModulePass, pkg *Package) {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "math/rand" || path == "math/rand/v2" {
				mp.Report(imp.Pos(),
					"import of "+path+" in a simulation package: global sources are unseeded and not reproducible",
					randSuggestion, nil)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// Use sites resolve the selector through the type checker,
				// so an aliased import (mrand "math/rand") is caught even
				// when the import line itself was suppressed.
				switch importedPath(pkg, n) {
				case "time":
					if isClockRead(n.Sel.Name) {
						mp.Report(n.Pos(), "time."+n.Sel.Name+" in a simulation package makes runs irreproducible",
							"derive timing from the simulated clock, or accept a timestamp from the caller", nil)
					}
				case "math/rand", "math/rand/v2":
					mp.Report(n.Pos(),
						"math/rand use in a simulation package: global sources are unseeded and not reproducible",
						randSuggestion, nil)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Range" && isSyncMapType(typeOf(pkg, sel.X)) {
					mp.Report(n.Pos(), "sync.Map iteration order is nondeterministic in a simulation package",
						"simulation state is single-threaded per run: use a plain map and iterate over sorted keys", nil)
				}
			case *ast.RangeStmt:
				checkMapRange(mp, pkg, n)
			}
			return true
		})
	}
}

// checkMapRange flags `for range m` over a map whose body mutates
// non-local state or appends to a slice: the iteration order is
// randomised by the runtime, so such loops produce run-to-run
// different simulation results.
func checkMapRange(mp *ModulePass, pkg *Package, rng *ast.RangeStmt) {
	t := typeOf(pkg, rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var why string
	var at ast.Node
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if slices.ContainsFunc(n.Lhs, isStateExpr) {
				why, at = "mutates shared state", n
			}
		case *ast.IncDecStmt:
			if isStateExpr(n.X) {
				why, at = "mutates shared state", n
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				why, at = "appends to output", n
			}
		}
		return true
	})
	if why != "" {
		mp.Report(at.Pos(),
			"map iteration order is nondeterministic and this loop body "+why,
			"iterate over sorted keys, or restructure to an order-independent form", nil)
	}
}

// isStateExpr reports whether e writes through a selector, index, or
// pointer dereference — i.e. to state that outlives the loop iteration.
func isStateExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return isStateExpr(e.X)
	}
	return false
}

const detflowSuggestion = "collect into a slice, sort, then emit; or derive the value deterministically from the simulated state"

// detCall is one call expression recorded with the nondeterministic
// region (if any) lexically enclosing it.
type detCall struct {
	call   *ast.CallExpr
	region string // "" outside any region
}

// detScan is the per-function state of one detflow scan.
type detScan struct {
	mp     *ModulePass
	g      *callGraph
	n      *cgNode
	chains map[*cgNode][]string

	tainted  map[types.Object]string // object → source description
	sorted   map[types.Object]bool   // explicitly sorted → taint laundered
	assigns  []*ast.AssignStmt
	specs    []*ast.ValueSpec
	calls    []detCall
	goStmts  []goSite
	reported map[token.Pos]bool
}

// goSite is one `go` statement with its loop-nesting context: only
// goroutines spawned in a loop can race each other's completion.
type goSite struct {
	stmt   *ast.GoStmt
	inLoop bool
}

func scanDetflow(mp *ModulePass, g *callGraph, n *cgNode, chains map[*cgNode][]string) {
	s := &detScan{
		mp: mp, g: g, n: n, chains: chains,
		tainted:  make(map[types.Object]string),
		sorted:   make(map[types.Object]bool),
		reported: make(map[token.Pos]bool),
	}
	s.walk(n.decl.Body, "", false)
	s.propagate()
	s.report()
}

// walk records regions, taint seeds, assignments, calls, and go
// statements. region is the innermost nondeterministic-order region
// ("" for none); inLoop tracks for/range nesting for the goroutine
// rule.
func (s *detScan) walk(node ast.Node, region string, inLoop bool) {
	if node == nil {
		return
	}
	switch node := node.(type) {
	case *ast.RangeStmt:
		s.walkExpr(node.X, region, inLoop)
		inner := region
		if t := typeOf(s.n.pkg, node.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				inner = "map iteration order"
				s.seedIdent(node.Key, inner)
				s.seedIdent(node.Value, inner)
			}
		}
		s.walk(node.Body, inner, true)
		return
	case *ast.ForStmt:
		s.walk(node.Init, region, inLoop)
		s.walkExpr(node.Cond, region, inLoop)
		s.walk(node.Post, region, inLoop)
		s.walk(node.Body, region, true)
		return
	case *ast.SelectStmt:
		comms := 0
		for _, c := range node.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				comms++
			}
		}
		inner := region
		if comms >= 2 {
			inner = "select arbitration order"
		}
		for _, c := range node.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if inner != region {
				if as, ok := cc.Comm.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						s.seedIdent(lhs, inner)
					}
				}
			}
			s.walk(cc.Comm, inner, inLoop)
			for _, stmt := range cc.Body {
				s.walk(stmt, inner, inLoop)
			}
		}
		return
	case *ast.GoStmt:
		s.goStmts = append(s.goStmts, goSite{stmt: node, inLoop: inLoop})
		s.walkExpr(node.Call, region, inLoop)
		return
	case *ast.AssignStmt:
		s.assigns = append(s.assigns, node)
	case *ast.ValueSpec:
		s.specs = append(s.specs, node)
	case *ast.CallExpr:
		s.calls = append(s.calls, detCall{call: node, region: region})
		// sync.Map.Range: the callback observes pairs in random order —
		// its body is a map-iteration region and its parameters are
		// order-tainted.
		if s.isSyncMapRange(node) && len(node.Args) == 1 {
			if lit, ok := ast.Unparen(node.Args[0]).(*ast.FuncLit); ok {
				for _, f := range lit.Type.Params.List {
					for _, name := range f.Names {
						s.seedIdent(name, "sync.Map iteration order")
					}
				}
				s.walkExpr(node.Fun, region, inLoop)
				s.walk(lit.Body, "sync.Map iteration order", inLoop)
				return
			}
		}
	}
	// Generic traversal for everything not handled structurally above.
	children(node, func(c ast.Node) { s.walk(c, region, inLoop) })
}

// walkExpr walks an expression subtree in the given context.
func (s *detScan) walkExpr(e ast.Node, region string, inLoop bool) {
	if e == nil {
		return
	}
	s.walk(e, region, inLoop)
}

// children invokes fn once per direct child of node.
func children(node ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if first {
			first = false
			return true
		}
		fn(n)
		return false
	})
}

// seedIdent marks the object an identifier defines or uses as tainted.
func (s *detScan) seedIdent(e ast.Expr, desc string) {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if obj := s.n.pkg.Info.Defs[id]; obj != nil {
		s.tainted[obj] = desc
		return
	}
	if obj := s.n.pkg.Info.Uses[id]; obj != nil {
		s.tainted[obj] = desc
	}
}

// propagate runs assignment-based taint propagation to a fixpoint, then
// launders objects passed to an explicit sort.
func (s *detScan) propagate() {
	for iter := 0; iter < 100; iter++ {
		changed := false
		for _, as := range s.assigns {
			desc := ""
			for _, rhs := range as.Rhs {
				if d, ok := s.taintOf(rhs); ok {
					desc = d
					break
				}
			}
			if desc == "" {
				continue
			}
			for _, lhs := range as.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					obj := s.n.pkg.Info.Defs[id]
					if obj == nil {
						obj = s.n.pkg.Info.Uses[id]
					}
					if obj != nil {
						if _, seen := s.tainted[obj]; !seen {
							s.tainted[obj] = desc
							changed = true
						}
					}
				}
			}
		}
		for _, vs := range s.specs {
			desc := ""
			for _, rhs := range vs.Values {
				if d, ok := s.taintOf(rhs); ok {
					desc = d
					break
				}
			}
			if desc == "" {
				continue
			}
			for _, name := range vs.Names {
				if obj := s.n.pkg.Info.Defs[name]; obj != nil {
					if _, seen := s.tainted[obj]; !seen {
						s.tainted[obj] = desc
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	// Sorting fixes an order: sort.X(keys) / slices.SortX(keys) launders
	// the order-taint on its argument, which is exactly the fix the
	// diagnostics suggest.
	for _, dc := range s.calls {
		if !isSortCall(s.n.pkg, dc.call) {
			continue
		}
		for _, arg := range dc.call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := s.n.pkg.Info.Uses[id]; obj != nil {
					s.sorted[obj] = true
				}
			}
		}
	}
}

// taintOf reports whether e is or contains a nondeterministic value: an
// identifier whose object is tainted, or a direct source call.
func (s *detScan) taintOf(e ast.Expr) (string, bool) {
	desc := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := s.n.pkg.Info.Uses[n]; obj != nil && !s.sorted[obj] {
				if d, ok := s.tainted[obj]; ok {
					desc = d
					return false
				}
			}
		case *ast.CallExpr:
			if d, ok := sourceCall(s.n.pkg, n); ok {
				desc = d
				return false
			}
		case *ast.FuncLit:
			return false // a literal's body runs later, not in this expression
		}
		return true
	})
	return desc, desc != ""
}

// sourceCall recognises the direct nondeterministic-value sources.
func sourceCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch importedPath(pkg, sel) {
	case "time":
		if isClockRead(sel.Sel.Name) {
			return "wall-clock time (time." + sel.Sel.Name + ")", true
		}
	case "math/rand", "math/rand/v2":
		return "math/rand value (rand." + sel.Sel.Name + ")", true
	}
	return "", false
}

// isClockRead reports whether name is a package time function that
// reads the wall clock.
func isClockRead(name string) bool {
	return name == "Now" || name == "Since" || name == "Until"
}

// importedPath resolves sel.X to the path of an imported package (under
// any alias), or "" when sel.X is not a package name.
func importedPath(pkg *Package, sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Path()
		}
	}
	return ""
}

// isSortCall recognises sort.* and slices.Sort* calls.
func isSortCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch importedPath(pkg, sel) {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(sel.Sel.Name, "Sort")
	}
	return false
}

// isSyncMapRange reports whether call is (*sync.Map).Range.
func (s *detScan) isSyncMapRange(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" {
		return false
	}
	return isSyncMapType(typeOf(s.n.pkg, sel.X))
}

// isSyncMapType reports whether t is sync.Map or *sync.Map.
func isSyncMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Map"
}

// report emits the diagnostics from the recorded facts.
func (s *detScan) report() {
	for _, dc := range s.calls {
		call := dc.call
		targets := s.g.callees(s.n.pkg, call)
		chain := s.bestChain(targets)

		// Rule 1: a sink-reaching call inside a nondeterministically
		// ordered region — the emission order itself is the leak.
		if dc.region != "" && chain != nil {
			s.emit(call.Pos(), dc.region, chain)
			continue
		}

		// Rule 2: inside a region, a dynamic call (stored callback,
		// method value) in a body that took a reference to a
		// sink-reaching function — the hand-off is the leak. (A closure
		// argument that calls a sink needs no extra rule: its body is
		// lexically inside the region, so rule 1 fires on the inner
		// call.)
		if dc.region != "" && chain == nil && len(targets) == 0 && isDynamicCall(s.n.pkg, call) {
			if refChain := s.bestChain(s.n.refs); refChain != nil {
				s.emit(call.Pos(), dc.region, refChain)
				continue
			}
		}

		// Rule 3: a tainted value passed to a sink-reaching call.
		if chain != nil {
			for _, arg := range call.Args {
				if desc, ok := s.taintOf(arg); ok {
					s.emit(call.Pos(), desc, chain)
					break
				}
			}
		}
	}

	// Rule 4: goroutines spawned in a loop whose bodies reach a sink
	// race each other's completion, so the sink observes an arbitrary
	// interleaving.
	for _, gs := range s.goStmts {
		if !gs.inLoop {
			continue
		}
		var chain []string
		if lit, ok := ast.Unparen(gs.stmt.Call.Fun).(*ast.FuncLit); ok {
			chain = s.funcLitChain(lit)
		} else {
			chain = s.bestChain(s.g.callees(s.n.pkg, gs.stmt.Call))
		}
		if chain != nil {
			s.emit(gs.stmt.Pos(), "goroutine completion order", chain)
		}
	}
}

// bestChain returns the shortest this-function→…→sink chain through
// any of the candidate callees, nil when none reaches a sink.
func (s *detScan) bestChain(targets []*types.Func) []string {
	var best []string
	for _, t := range targets {
		tn := s.g.nodes[canonical(t)]
		if tn == nil {
			continue
		}
		tail := s.chains[tn]
		if tail == nil {
			continue
		}
		if best == nil || len(tail)+1 < len(best) {
			best = append([]string{displayName(s.n.fn)}, tail...)
		}
	}
	// A sink calling helpers of its own: the chain starts at this
	// function even when it is itself the sink.
	if best != nil && len(best) >= 2 && best[0] == best[1] {
		best = best[1:]
	}
	return best
}

// funcLitChain returns the chain through the first sink-reaching call
// inside a function literal's body, nil when there is none.
func (s *detScan) funcLitChain(lit *ast.FuncLit) []string {
	var chain []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if chain != nil {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			chain = s.bestChain(s.g.callees(s.n.pkg, c))
		}
		return chain == nil
	})
	return chain
}

// emit reports one finding, at most once per position.
func (s *detScan) emit(pos token.Pos, source string, chain []string) {
	if s.reported[pos] {
		return
	}
	s.reported[pos] = true
	msg := source + " flows into deterministic-output sink via " + strings.Join(chain, " → ")
	s.mp.Report(pos, msg, detflowSuggestion, chain)
}

// isDynamicCall reports whether call goes through a function-typed
// VALUE (a stored callback, a parameter, a func-typed field) rather
// than a named function, builtin, or conversion. Only dynamic calls
// can hide a sink behind a reference edge.
func isDynamicCall(pkg *Package, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, isVar := pkg.Info.Uses[fun].(*types.Var)
		return isVar
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			_, isVar := sel.Obj().(*types.Var)
			return isVar // func-typed struct field
		}
		_, isVar := pkg.Info.Uses[fun.Sel].(*types.Var)
		return isVar
	case *ast.FuncLit:
		return false // immediately-invoked literal: edges already attributed
	}
	return false
}
