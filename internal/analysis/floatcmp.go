package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCmpAnalyzer protects the metric pipeline from floating-point
// equality: IPC, throughput, and speedup values are products of long
// accumulation chains, so == / != on them either never fires or fires
// by accident of rounding — both silently skew the figures the paper
// comparison is built from. The check covers internal/metrics and
// internal/experiments, where every float is a result value.
var FloatCmpAnalyzer = &Analyzer{
	Name: "floatcmp",
	Doc:  "no == or != on float expressions in internal/metrics and internal/experiments",
	Help: "Exact float equality makes metric comparisons depend on summation " +
		"order. Compare with an explicit epsilon, or restructure to integer " +
		"counters.",
	Run: runFloatCmp,
}

func runFloatCmp(pass *Pass) {
	if !pathInPackages(pass.Pkg.Path, "metrics", "experiments") {
		return
	}
	walkWithStack(pass.Pkg, func(n ast.Node, stack []ast.Node) {
		cmp, ok := n.(*ast.BinaryExpr)
		if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
			return
		}
		if isFloatExpr(pass, cmp.X) || isFloatExpr(pass, cmp.Y) {
			pass.Report(cmp.Pos(),
				"floating-point "+cmp.Op.String()+" comparison",
				"compare against an epsilon (math.Abs(a-b) < eps) or restructure with </<=")
		}
	})
}

// isFloatExpr reports whether e's static type is a floating-point kind
// (including untyped float constants).
func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
