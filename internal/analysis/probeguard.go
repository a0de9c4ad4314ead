package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ProbeGuardAnalyzer enforces the telemetry layer's cost contract:
// observer methods (the event probe and the decision tracer) fire on
// hot simulation paths, so every call must be dominated by a nil check
// of the observer — the single-branch guard that makes the disabled
// (nil-observer) configuration effectively free. An unguarded call
// both panics when telemetry is off and signals that a new fire site
// skipped the guard convention.
var ProbeGuardAnalyzer = &Analyzer{
	Name: "probeguard",
	Doc:  "telemetry observer calls (Probe, DecisionTracer) must be dominated by a nil check",
	Help: "Probes and tracers are optional observers; calling one unguarded " +
		"turns \"observability off\" into a nil-pointer crash. Dominate every " +
		"observer call with an explicit nil check.",
	Run: runProbeGuard,
}

// probeInterfaces names the telemetry observer interfaces the guard
// protects; probeFields is the field-name fallback when type
// information is unavailable.
var (
	probeInterfaces = map[string]bool{"Probe": true, "DecisionTracer": true}
	probeFields     = map[string]bool{"probe": true, "Probe": true, "tracer": true, "Tracer": true}
)

func runProbeGuard(pass *Pass) {
	walkWithStack(pass.Pkg, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		recv := sel.X
		if !isProbeExpr(pass, recv) {
			return
		}
		if guardedByNilCheck(pass, recv, call, stack) {
			return
		}
		pass.Report(call.Pos(),
			"probe method "+types.ExprString(recv)+"."+sel.Sel.Name+" called without a dominating nil check",
			"guard the call: if "+types.ExprString(recv)+" != nil { ... }")
	})
}

// isProbeExpr reports whether e denotes a telemetry observer: its
// static type is a named interface from a telemetry package in
// probeInterfaces, or (fallback when types are unavailable) it selects
// a field in probeFields.
func isProbeExpr(pass *Pass, e ast.Expr) bool {
	if t := pass.TypeOf(e); t != nil {
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if probeInterfaces[obj.Name()] && obj.Pkg() != nil &&
				strings.HasSuffix(obj.Pkg().Path(), "telemetry") {
				_, isIface := named.Underlying().(*types.Interface)
				return isIface
			}
		}
		return false
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return probeFields[sel.Sel.Name]
	}
	return false
}

// guardedByNilCheck reports whether the call at the top of stack is
// dominated by a nil check of recv. Two shapes count:
//
//	if recv != nil { ...call... }          // possibly && more conditions
//	if recv == nil { return }; ...call...  // early return in the same block
func guardedByNilCheck(pass *Pass, recv ast.Expr, call *ast.CallExpr, stack []ast.Node) bool {
	want := types.ExprString(recv)
	var child ast.Node = call
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			// The guard only dominates the then-branch.
			if n.Body == child && condHasNilCheck(n.Cond, want, token.NEQ) {
				return true
			}
		case *ast.BlockStmt:
			if earlyReturnGuard(n, child, want) {
				return true
			}
		case *ast.FuncLit, *ast.FuncDecl:
			// Guards established outside the enclosing function do not
			// dominate calls inside it (the literal may run later).
			return false
		}
		child = stack[i]
	}
	return false
}

// condHasNilCheck reports whether cond contains the conjunct
// `want <op> nil` (either operand order) reachable through &&.
func condHasNilCheck(cond ast.Expr, want string, op token.Token) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condHasNilCheck(c.X, want, op)
	case *ast.BinaryExpr:
		if c.Op == token.LAND {
			return condHasNilCheck(c.X, want, op) || condHasNilCheck(c.Y, want, op)
		}
		if c.Op != op {
			return false
		}
		return (types.ExprString(c.X) == want && isNilIdent(c.Y)) ||
			(types.ExprString(c.Y) == want && isNilIdent(c.X))
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// earlyReturnGuard reports whether block contains, before the
// statement leading to the call, an `if want == nil { return/panic }`
// early exit.
func earlyReturnGuard(block *ast.BlockStmt, child ast.Node, want string) bool {
	idx := -1
	for i, stmt := range block.List {
		if stmt == child {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	for _, stmt := range block.List[:idx] {
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok || ifs.Else != nil || len(ifs.Body.List) == 0 {
			continue
		}
		if !condHasNilCheck(ifs.Cond, want, token.EQL) {
			continue
		}
		switch last := ifs.Body.List[len(ifs.Body.List)-1].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.ExprStmt:
			if c, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
	}
	return false
}
