package analysis

import (
	"go/ast"
	"go/types"
)

// LockDisciplineAnalyzer polices the packages that run concurrent
// code — internal/runner (the parallel job engine), internal/telemetry
// (live introspection), internal/service (the tlacached daemon's
// job registry, result cache, and admission control), internal/sim
// (the machine/generator/feeder free lists and the stream producer), and
// internal/decision (trace readers shared by tlatrace workers) — for
// the mistakes that race detectors only catch when the schedule
// cooperates:
//
//   - writes to fields of a mutex-owning struct (one with a sync.Mutex
//     or sync.RWMutex field) from a method that has not lexically
//     acquired that mutex first;
//   - channel sends performed while the mutex is held (a send can block
//     indefinitely, turning a held lock into a deadlock);
//   - sync.Mutex values copied — by-value receivers or parameters of
//     mutex-containing structs, dereference copies (*p), and ranging
//     over a slice of mutex-containing values — which silently forks
//     the lock.
//
// The held-lock tracking is a lexical approximation, not a dataflow
// analysis: a `recv.mu.Lock()` call marks the mutex held from that
// point in source order, an explicit `recv.mu.Unlock()` statement
// clears it, and a deferred unlock leaves it held to the end of the
// method (matching the lock-at-top idiom runner and telemetry use).
// Function literals are skipped — they run on other goroutines'
// schedules, so the enclosing method's lock state says nothing about
// theirs.
var LockDisciplineAnalyzer = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "runner/telemetry/service/sim/decision: field writes need the owning mutex, no sends under lock, no mutex copies",
	Help: "In the concurrent packages, a field owned by a mutex may only be " +
		"touched with the mutex held, channel sends must not happen under a " +
		"lock, and mutex-bearing structs must not be copied. Move the access " +
		"inside the Lock/Unlock window or hand the value off outside it.",
	Run: runLockDiscipline,
}

func runLockDiscipline(pass *Pass) {
	if !pathInPackages(pass.Pkg.Path, "runner", "telemetry", "service", "sim", "decision") {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMutexByValue(pass, fd)
			if owner, recv, mu := methodOnMutexOwner(pass, fd); owner != "" {
				checkMethodLocking(pass, fd, owner, recv, mu)
			}
		}
	}
}

// mutexFieldName returns the name of the first sync.Mutex/sync.RWMutex
// field of t's underlying struct, or "".
func mutexFieldName(t types.Type) string {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if isSyncMutex(st.Field(i).Type()) {
			return st.Field(i).Name()
		}
	}
	return ""
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// containsMutex reports whether a value of type t embeds a sync mutex
// anywhere in its (non-pointer) field tree, so copying t copies a lock.
func containsMutex(t types.Type) bool {
	return containsMutexRec(t, make(map[types.Type]bool))
}

func containsMutexRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if isSyncMutex(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMutexRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsMutexRec(u.Elem(), seen)
	}
	return false
}

// methodOnMutexOwner classifies fd: when it is a method whose receiver's
// named type owns a mutex field, it returns the owner type name, the
// receiver identifier ("" when anonymous), and the mutex field name.
func methodOnMutexOwner(pass *Pass, fd *ast.FuncDecl) (owner, recv, mu string) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return "", "", ""
	}
	field := fd.Recv.List[0]
	t := pass.TypeOf(field.Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", "", ""
	}
	mu = mutexFieldName(named)
	if mu == "" {
		return "", "", ""
	}
	if len(field.Names) == 1 {
		recv = field.Names[0].Name
	}
	return named.Obj().Name(), recv, mu
}

// checkMethodLocking walks fd's body in source order tracking whether
// recv.mu is (lexically) held, and reports unguarded field writes and
// sends-under-lock.
func checkMethodLocking(pass *Pass, fd *ast.FuncDecl, owner, recv, mu string) {
	if recv == "" || recv == "_" {
		return // a method that cannot name its fields cannot write them
	}
	held := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false // deferred unlocks run at return; lock stays held here
		case *ast.CallExpr:
			switch mutexMethodCall(n, recv, mu) {
			case "Lock":
				held = true
			case "Unlock":
				held = false
			}
		case *ast.SendStmt:
			if held {
				pass.Report(n.Pos(),
					"channel send while "+recv+"."+mu+" is held can block with the lock taken",
					"move the send outside the critical section, or use a buffered/non-blocking send")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkFieldWrite(pass, lhs, recv, owner, mu, held)
			}
		case *ast.IncDecStmt:
			checkFieldWrite(pass, n.X, recv, owner, mu, held)
		}
		return true
	})
}

// mutexMethodCall returns "Lock"/"Unlock" when call is
// recv.mu.Lock()/recv.mu.Unlock(), else "". RLock is deliberately not
// recognised: a read lock does not license the field writes this check
// guards.
func mutexMethodCall(call *ast.CallExpr, recv, mu string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock") {
		return ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != mu {
		return ""
	}
	id, ok := inner.X.(*ast.Ident)
	if !ok || id.Name != recv {
		return ""
	}
	return sel.Sel.Name
}

// checkFieldWrite reports lhs when it writes a non-mutex field of the
// receiver while the mutex is not held. Index and dereference layers
// are unwrapped so `r.jobs[i] = x` attributes to field jobs.
func checkFieldWrite(pass *Pass, lhs ast.Expr, recv, owner, mu string, held bool) {
	if held {
		return
	}
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			lhs = e.X
			continue
		case *ast.ParenExpr:
			lhs = e.X
			continue
		}
		break
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name == mu {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != recv {
		return
	}
	pass.Report(lhs.Pos(),
		"write to "+owner+"."+sel.Sel.Name+" without holding "+recv+"."+mu,
		"acquire "+recv+"."+mu+".Lock() before the write, or use an atomic")
}

// checkMutexByValue reports mutex-containing values copied through fd's
// signature or body: by-value receivers and parameters, dereference
// copies, and range over mutex-containing elements.
func checkMutexByValue(pass *Pass, fd *ast.FuncDecl) {
	reportField := func(f *ast.Field, kind string) {
		t := pass.TypeOf(f.Type)
		if t == nil {
			return
		}
		if _, isPtr := t.(*types.Pointer); isPtr {
			return
		}
		if containsMutex(t) {
			pass.Report(f.Pos(),
				kind+" of type "+t.String()+" copies its sync.Mutex by value",
				"take a pointer instead; a copied mutex guards nothing")
		}
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			reportField(f, "by-value receiver")
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			reportField(f, "by-value parameter")
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if star, ok := ast.Unparen(rhs).(*ast.StarExpr); ok {
					if t := pass.TypeOf(star); t != nil && containsMutex(t) {
						pass.Report(rhs.Pos(),
							"dereference copies "+t.String()+" and its sync.Mutex by value",
							"keep the pointer; a copied mutex guards nothing")
					}
				}
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			if t := pass.TypeOf(n.Value); t != nil && containsMutex(t) {
				pass.Report(n.Value.Pos(),
					"range copies "+t.String()+" elements and their sync.Mutex by value",
					"range over indices (or a slice of pointers) instead")
			}
		}
		return true
	})
}
