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
//     indefinitely, turning a held lock into a deadlock).
//
// Copied mutexes are left to go vet's copylocks check, which CI runs.
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
	Doc:  "runner/telemetry/service/sim/decision: field writes need the owning mutex, no sends under lock",
	Help: "In the concurrent packages, a field owned by a mutex may only be " +
		"touched with the mutex held, and channel sends must not happen under a " +
		"lock. Move the access inside the Lock/Unlock window or hand the value " +
		"off outside it.",
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
