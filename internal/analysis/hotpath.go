package analysis

import (
	"sort"
	"strings"
)

// HotPathAnalyzer is the static side of the repository's zero-allocation
// guarantee. The benchmarks in alloc_test.go prove 0 allocs/op at
// runtime for the configurations they run; this check proves the same
// property for every path the compiler can see, by computing
// reachability from `//tlavet:hotpath` annotated roots over the module
// call graph and reporting each may-allocate construct (escape.go) in a
// reachable function. Every finding carries the root→site call chain so
// the report explains WHY a function is hot, not just that it is.
//
// Intentional, bounded allocation sites on hot paths — e.g. the victim
// cache's capacity-limited appends — are suppressed in place with
// `//tlavet:allow hotpath <reason>`.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "no heap-allocating construct reachable from //tlavet:hotpath roots",
	Help: "The steady-state access path is benchmarked at 0 allocs/op; any " +
		"construct that may allocate on a path reachable from a " +
		"//tlavet:hotpath root regresses that budget. Hoist the allocation to " +
		"setup, reuse a scratch buffer, or suppress a provably bounded site " +
		"with //tlavet:allow hotpath <reason>.",
	RunModule: runHotPath,
}

func runHotPath(mp *ModulePass) {
	g := buildCallGraph(mp.Module)
	roots := g.hotPathRoots()
	if len(roots) == 0 {
		return
	}
	chains := g.reachableFrom(roots)
	nodes := make([]*cgNode, 0, len(chains))
	for n := range chains {
		nodes = append(nodes, n)
	}
	sortNodes(nodes)
	for _, n := range nodes {
		chain := chains[n]
		for _, f := range scanAllocs(n.pkg, n.decl) {
			msg := f.msg + " on hot path via " + strings.Join(chain, " → ")
			mp.Report(f.pos, msg, f.suggestion, chain)
		}
	}
}

// HotPathRoots exposes the resolved root set of a loaded module — the
// functions reachability starts from — for the root/benchmark
// cross-check test. Names are displayName-rendered ("pkg.Recv.Method"),
// sorted and deduplicated.
func HotPathRoots(m *Module) []string {
	g := buildCallGraph(m)
	var names []string
	seen := make(map[string]bool)
	for _, r := range g.hotPathRoots() {
		name := displayName(r)
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
