package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadPlanted writes one throwaway package to disk and runs a single
// analyzer over it — the harness for the planted-regression tests,
// which simulate exactly the change each prover exists to catch.
func loadPlanted(t *testing.T, a *Analyzer, src string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "tlacache/internal/planted")
	if err != nil {
		t.Fatalf("loading planted package: %v", err)
	}
	return RunPackage(pkg.Fset, pkg, []*Analyzer{a}, "")
}

// TestResetcoverPlantedRegression adds a field to a pooled type
// without touching its reset method: the exact regression resetcover
// exists for must fire.
func TestResetcoverPlantedRegression(t *testing.T) {
	diags := loadPlanted(t, ResetcoverAnalyzer, `package planted

type Pool struct {
	a int
	b int // the newly-added field nobody told Reset about
}

// Reset restores a — and silently forgets b.
//
//tlavet:resetcover
func (p *Pool) Reset() {
	p.a = 0
}
`)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "planted.Pool.b is never reset") {
		t.Fatalf("planted never-reset field: got %v, want one finding naming planted.Pool.b", diags)
	}
}

// dynamicResetProofs maps every type that must carry a
// //tlavet:resetcover method to the dynamic test that proves the reset
// restores freshly-constructed state byte-for-byte. The static prover
// (field coverage) and the dynamic proof (value equivalence) are
// complementary; this table is the contract that neither side silently
// loses a type.
var dynamicResetProofs = map[string]string{
	"hierarchy.Hierarchy":   "sim.TestResetEquivalence (pooled machine reuse across all machine modes)",
	"hierarchy.victimCache": "sim.TestResetEquivalence (victim-cache machine modes exercise vc.reset)",
	"cache.Cache":           "sim.TestResetEquivalence (hierarchy.Reset resets every level's Cache)",
	"prefetch.Streamer":     "sim.TestResetEquivalence (prefetch machine modes reset the streamers)",
	"cpu.Core":              "sim.TestResetEquivalence (cores are reset on every pooled acquire)",
	"trace.Synthetic":       "sim pooled-generator tests (acquireSynthetic reinitialises via Reinit)",
	"replacement.lru":       "replacement.TestResetStateEquivalence (reset policy DeepEqual to a fresh one)",
	"replacement.nru":       "replacement.TestResetStateEquivalence (reset policy DeepEqual to a fresh one)",
	"replacement.srrip":     "replacement.TestResetStateEquivalence (reset policy DeepEqual to a fresh one)",
	"replacement.random":    "replacement.TestResetStateEquivalence (reset policy DeepEqual to a fresh one)",
	"replacement.dip":       "replacement.TestResetStateEquivalence (reset policy DeepEqual to a fresh one)",
	"replacement.drrip":     "replacement.TestResetStateEquivalence (reset policy DeepEqual to a fresh one)",
}

// TestResetcoverMatchesDynamicResetProofs cross-checks the static and
// dynamic reset proofs: the set of resetcover-annotated receiver types
// must equal the set of types the dynamic equivalence tests exercise.
// An annotation dropped from a type fails here before the dynamic test
// can rot; a new annotated type fails here until a dynamic proof is
// named for it.
func TestResetcoverMatchesDynamicResetProofs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-module load in -short mode")
	}
	m, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	got := ResetcoverTargets(m)
	seen := make(map[string]bool, len(got))
	for _, name := range got {
		seen[name] = true
		if _, ok := dynamicResetProofs[name]; !ok {
			t.Errorf("%s carries //tlavet:resetcover but no dynamic proof is on record; "+
				"add it to dynamicResetProofs with the test that exercises its reset", name)
		}
	}
	for name, proof := range dynamicResetProofs {
		if !seen[name] {
			t.Errorf("%s is exercised dynamically (%s) but carries no //tlavet:resetcover; "+
				"the static completeness proof lost it", name, proof)
		}
	}
}

// TestRuleParitySARIF is the analysis-side half of the rule-parity
// check: every registered analyzer must render a SARIF rule whose
// short description and help text are non-empty, so a future check
// cannot ship without remediation guidance.
func TestRuleParitySARIF(t *testing.T) {
	out, err := SARIF(nil)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
						Help struct {
							Text string `json:"text"`
						} `json:"help"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatal(err)
	}
	rules := make(map[string]struct{ short, help string })
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = struct{ short, help string }{r.ShortDescription.Text, r.Help.Text}
	}
	for _, a := range Analyzers() {
		r, ok := rules[a.Name]
		if !ok {
			t.Errorf("%s: registered analyzer has no SARIF rule", a.Name)
			continue
		}
		if r.short == "" {
			t.Errorf("%s: SARIF rule has an empty short description", a.Name)
		}
		if r.help == "" {
			t.Errorf("%s: SARIF rule has an empty help text (set Analyzer.Help)", a.Name)
		}
	}
}
