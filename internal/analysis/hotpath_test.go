package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// TestHotPathRootsMatchBenchmarkEntryPoints is the static/dynamic
// cross-check: alloc_test.go proves zero allocs per instruction at
// runtime by driving the trace generator, the hierarchy access, and the
// core timing model; the hotpath analyzer proves the same property
// statically from its `//tlavet:hotpath` roots. This test pins the two
// to each other — every function the benchmark stepper drives must be
// an annotated root, so neither guard can silently drift away from the
// other.
func TestHotPathRootsMatchBenchmarkEntryPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-module load in -short mode")
	}
	m, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	roots := HotPathRoots(m)
	rootSet := make(map[string]bool, len(roots))
	for _, r := range roots {
		rootSet[r] = true
	}

	// The functions the alloc benchmark's stepper calls directly.
	stepperEntryPoints := []string{
		"trace.Synthetic.Next",
		"hierarchy.Hierarchy.IFetchMemoHit",
		"hierarchy.Hierarchy.AccessAt",
		"cpu.Core.Instr",
	}
	for _, want := range stepperEntryPoints {
		if !rootSet[want] {
			t.Errorf("benchmark entry point %s is not an annotated hot-path root; roots = %v", want, roots)
		}
	}
	// Access (the unbanked variant) and every policy's Touch/Victim —
	// annotated on the replacement.Policy interface — must be present
	// too: every concrete policy a mode can configure is reachable.
	if !rootSet["hierarchy.Hierarchy.Access"] {
		t.Errorf("hierarchy.Hierarchy.Access missing from roots %v", roots)
	}
	for _, policy := range []string{"lru", "nru", "srrip", "random"} {
		for _, method := range []string{"Touch", "Victim"} {
			if name := "replacement." + policy + "." + method; !rootSet[name] {
				t.Errorf("policy root %s missing; roots = %v", name, roots)
			}
		}
	}
}

// TestAllocTestModeList pins the benchmark's machine-mode list. The
// hotpath analyzer's root set guards every one of these configurations
// (they all route through the same annotated entry points); if a mode
// is added or renamed, this test fails to force re-checking that its
// code paths are covered by the static gate.
func TestAllocTestModeList(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "alloc_test.go"))
	if err != nil {
		t.Fatalf("reading alloc_test.go: %v", err)
	}
	re := regexp.MustCompile(`\{"([a-z0-9-]+)",\s*(?:nil|func\()`)
	var modes []string
	for _, m := range re.FindAllStringSubmatch(string(data), -1) {
		modes = append(modes, m[1])
	}
	sort.Strings(modes)
	want := []string{
		"baseline-inclusive", "eci", "exclusive", "non-inclusive",
		"prefetch", "qbs", "tlh", "victim-cache",
	}
	if !reflect.DeepEqual(modes, want) {
		t.Fatalf("alloc_test.go machine modes = %v, want %v\n(new mode? verify its hot path is reachable from the //tlavet:hotpath roots, then update this list)", modes, want)
	}
}
