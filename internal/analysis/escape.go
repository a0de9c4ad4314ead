package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file classifies heap-allocation constructs for the hotpath
// analyzer. The classification is syntactic-plus-types, not a real
// escape analysis: it flags every construct that MAY allocate, which is
// the right polarity for a gate — gc's escape analysis can only remove
// allocations the source admits, so a body with zero flagged constructs
// is zero-alloc under any compiler. Constructs the compiler provably
// keeps on the stack (non-capturing literals, value struct literals)
// are not flagged; everything borderline is, and intentional sites are
// suppressed with `//tlavet:allow hotpath <reason>`.

// allocFinding is one may-allocate construct in a function body.
type allocFinding struct {
	pos        token.Pos
	msg        string
	suggestion string
}

// scanAllocs returns every may-allocate construct in decl's body, in
// source order. Constructs inside panic(...) arguments are exempt:
// a panic ends the run, so formatting its message is off the steady
// state the zero-allocation contract covers.
func scanAllocs(pkg *Package, decl *ast.FuncDecl) []allocFinding {
	s := &allocScanner{pkg: pkg, decl: decl}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && s.isBuiltin(call.Fun, "panic") {
			return false
		}
		s.classify(n)
		return true
	})
	return s.found
}

type allocScanner struct {
	pkg   *Package
	decl  *ast.FuncDecl
	found []allocFinding
}

func (s *allocScanner) add(pos token.Pos, msg, suggestion string) {
	s.found = append(s.found, allocFinding{pos: pos, msg: msg, suggestion: suggestion})
}

func (s *allocScanner) typeOf(e ast.Expr) types.Type {
	if tv, ok := s.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isBuiltin reports whether fun names the predeclared builtin `name`.
func (s *allocScanner) isBuiltin(fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	if obj, ok := s.pkg.Info.Uses[id]; ok {
		_, isBuiltin := obj.(*types.Builtin)
		return isBuiltin
	}
	return true
}

func (s *allocScanner) classify(n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		s.classifyCall(n)
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isStringType(s.typeOf(n)) {
			s.add(n.Pos(), "string concatenation allocates",
				"build into a reused []byte, or move formatting off the hot path")
		}
	case *ast.AssignStmt:
		s.classifyAssign(n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				s.add(n.Pos(), "address of composite literal escapes to the heap",
					"reuse a preallocated value, or hoist the literal out of the hot path")
			}
		}
	case *ast.CompositeLit:
		s.classifyCompositeLit(n)
	case *ast.FuncLit:
		if capturesVariables(s.pkg, s.decl, n) {
			s.add(n.Pos(), "function literal captures variables and allocates a closure",
				"hoist the literal to a package-level function or pass state explicitly")
		}
	case *ast.GoStmt:
		s.add(n.Pos(), "go statement allocates a goroutine stack",
			"hot paths must not spawn goroutines; hand work to a pre-started worker")
	}
}

func (s *allocScanner) classifyCall(call *ast.CallExpr) {
	switch {
	case s.isBuiltin(call.Fun, "make"):
		s.add(call.Pos(), "make allocates", "preallocate in the constructor and reuse")
		return
	case s.isBuiltin(call.Fun, "new"):
		s.add(call.Pos(), "new allocates", "preallocate in the constructor and reuse")
		return
	case s.isBuiltin(call.Fun, "append"):
		s.add(call.Pos(), "append may grow its backing array",
			"preallocate capacity in the constructor, or truncate-and-reuse")
		return
	}
	// Type conversions that copy: string <-> []byte/[]rune.
	if tv, ok := s.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		s.classifyConversion(call, tv.Type)
		return
	}
	// Ordinary call: boxing of arguments into interface parameters, and
	// the argument slice of a variadic ...interface{} call (fmt.*).
	sig, ok := s.typeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	s.classifyCallArgs(call, sig)
}

func (s *allocScanner) classifyConversion(call *ast.CallExpr, to types.Type) {
	from := s.typeOf(call.Args[0])
	if from == nil {
		return
	}
	switch {
	case isStringType(to) && isByteOrRuneSlice(from):
		s.add(call.Pos(), "slice-to-string conversion copies and allocates",
			"keep the value as []byte, or intern off the hot path")
	case isByteOrRuneSlice(to) && isStringType(from):
		s.add(call.Pos(), "string-to-slice conversion copies and allocates",
			"keep the value as []byte, or convert once at construction")
	}
}

func (s *allocScanner) classifyCallArgs(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() && !call.Ellipsis.IsValid() {
		variadic := params.At(n - 1)
		elem := variadic.Type().(*types.Slice).Elem()
		if len(call.Args) >= n {
			if types.IsInterface(elem.Underlying()) {
				s.add(call.Pos(), "variadic ...interface{} call allocates its argument slice",
					"move formatting off the hot path, or pass preformatted values")
			} else {
				s.add(call.Pos(), "variadic call allocates its argument slice",
					"pass an existing slice with ..., or use a fixed-arity helper")
			}
		}
		// Fixed parameters may still box.
		for i := 0; i < n-1 && i < len(call.Args); i++ {
			s.checkBoxing(params.At(i).Type(), call.Args[i])
		}
		// Variadic arguments boxing into a concrete elem never happens
		// (elem non-interface ⇒ no boxing; elem interface ⇒ flagged above).
		return
	}
	for i := 0; i < n && i < len(call.Args); i++ {
		pt := params.At(i).Type()
		if sig.Variadic() && i == n-1 {
			break // f(s...) forwards the existing slice
		}
		s.checkBoxing(pt, call.Args[i])
	}
}

func (s *allocScanner) classifyAssign(n *ast.AssignStmt) {
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(s.typeOf(n.Lhs[0])) {
		s.add(n.Pos(), "string concatenation allocates",
			"build into a reused []byte, or move formatting off the hot path")
	}
	for _, lhs := range n.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := s.typeOf(idx.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					s.add(lhs.Pos(), "map assignment may allocate (bucket growth, key/value copy)",
						"replace the map with a fixed-size array or preallocated slice keyed by index")
				}
			}
		}
	}
	// Boxing through assignment: iface = concreteValue.
	if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
		for i, lhs := range n.Lhs {
			if i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
				s.checkBoxing(s.typeOf(lhs), n.Rhs[i])
			}
		}
	}
}

func (s *allocScanner) classifyCompositeLit(lit *ast.CompositeLit) {
	t := s.typeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		s.add(lit.Pos(), "map literal allocates", "preallocate in the constructor and reuse")
	case *types.Slice:
		s.add(lit.Pos(), "slice literal allocates its backing array",
			"preallocate in the constructor, or use a fixed-size array")
	}
}

// checkBoxing reports src when storing it into dst converts a concrete
// non-pointer-shaped value to an interface, which heap-allocates the
// value's copy.
func (s *allocScanner) checkBoxing(dst types.Type, src ast.Expr) {
	if dst == nil {
		return
	}
	if !types.IsInterface(dst.Underlying()) {
		return
	}
	st := s.typeOf(src)
	if st == nil || types.IsInterface(st.Underlying()) {
		return
	}
	if basic, ok := st.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return
	}
	if isPointerShaped(st) {
		return
	}
	s.add(src.Pos(), "value-to-interface conversion boxes "+st.String()+" on the heap",
		"pass a pointer, or keep the call monomorphic")
}

// isPointerShaped reports whether values of t fit in an interface word
// without boxing: pointers, channels, maps, funcs, unsafe.Pointer.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (basic.Kind() == types.Byte || basic.Kind() == types.Rune ||
		basic.Kind() == types.Uint8 || basic.Kind() == types.Int32)
}

// capturesVariables reports whether lit references a variable declared
// in decl but outside lit — the condition under which the literal
// compiles to a heap-allocated closure rather than a static function.
func capturesVariables(pkg *Package, decl *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Pos() >= decl.Pos() && obj.Pos() < lit.Pos() {
			captured = true
			return false
		}
		return true
	})
	return captured
}
