package workload

import (
	"testing"

	"tlacache/internal/statecheck"
	"tlacache/internal/trace"
)

func TestSuiteShape(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("suite has %d benchmarks, want 15", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("All() not sorted: %s >= %s", all[i-1].Name, all[i].Name)
		}
	}
	for _, cat := range []Category{CCF, LLCF, LLCT} {
		if got := len(ByCategory(cat)); got != 5 {
			t.Errorf("category %s has %d benchmarks, want 5", cat, got)
		}
	}
}

func TestCategoriesMatchPaper(t *testing.T) {
	want := map[string]Category{
		"dea": CCF, "h26": CCF, "per": CCF, "pov": CCF, "sje": CCF,
		"ast": LLCF, "bzi": LLCF, "cal": LLCF, "hmm": LLCF, "xal": LLCF,
		"gob": LLCT, "lib": LLCT, "mcf": LLCT, "sph": LLCT, "wrf": LLCT,
	}
	for name, cat := range want {
		b, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if b.Category != cat {
			t.Errorf("%s category = %v, want %v", name, b.Category, cat)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestProfilesValidateAndGenerate builds every profile's generator and,
// after a warm-up of 100,000 instructions that must contain memory
// accesses, requires Next to make exactly zero heap allocations over
// the next 100,000: the generator runs once per simulated instruction.
func TestProfilesValidateAndGenerate(t *testing.T) {
	const window = 100_000
	for _, b := range All() {
		if err := b.Profile.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		g, err := b.NewGenerator(1)
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		var in trace.Instr
		mem := 0
		for range window {
			g.Next(&in)
			if in.Op != trace.OpNone {
				mem++
			}
		}
		if mem == 0 {
			t.Errorf("%s: produced no memory accesses", b.Name)
		}
		if c := statecheck.Allocs(func() {
			for range window {
				g.Next(&in)
			}
		}); c.Mallocs != 0 {
			t.Errorf("%s: Next made %v\nin %d warm calls, want 0", b.Name, c, window)
		}
	}
}

func TestPaperMPKIRecorded(t *testing.T) {
	// Every surrogate carries Table I's numbers and they are internally
	// consistent: MPKI must not increase down the hierarchy.
	for _, b := range All() {
		if b.Paper.L1 <= 0 || b.Paper.L2 <= 0 || b.Paper.LLC <= 0 {
			t.Errorf("%s: missing paper MPKI", b.Name)
		}
		if b.Paper.L2 > b.Paper.L1+1e-9 || b.Paper.LLC > b.Paper.L2+1e-9 {
			t.Errorf("%s: paper MPKI not monotone: %+v", b.Name, b.Paper)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if CCF.String() != "CCF" || LLCF.String() != "LLCF" || LLCT.String() != "LLCT" {
		t.Fatal("category strings wrong")
	}
	if Category(9).String() != "Category(9)" {
		t.Fatal("unknown category string wrong")
	}
}

func TestTableIIMixes(t *testing.T) {
	mixes := TableIIMixes()
	if len(mixes) != 12 {
		t.Fatalf("%d Table II mixes, want 12", len(mixes))
	}
	wantCats := map[string]string{
		"MIX_00": "LLCF+LLCT", "MIX_01": "CCF+CCF", "MIX_02": "LLCF+LLCT",
		"MIX_03": "CCF+CCF", "MIX_04": "LLCT+LLCT", "MIX_05": "CCF+LLCT",
		"MIX_06": "LLCF+LLCF", "MIX_07": "CCF+LLCT", "MIX_08": "LLCF+CCF",
		"MIX_09": "CCF+LLCT", "MIX_10": "LLCT+CCF", "MIX_11": "LLCF+CCF",
	}
	for _, m := range mixes {
		if len(m.Apps) != 2 {
			t.Errorf("%s has %d apps", m.Name, len(m.Apps))
		}
		if _, err := m.Benchmarks(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if got := m.Categories(); got != wantCats[m.Name] {
			t.Errorf("%s categories = %s, want %s", m.Name, got, wantCats[m.Name])
		}
	}
}

func TestAllPairsCount(t *testing.T) {
	pairs := AllPairs()
	if len(pairs) != 105 { // C(15,2), the paper's population
		t.Fatalf("AllPairs = %d, want 105", len(pairs))
	}
	seen := map[string]bool{}
	for _, m := range pairs {
		if seen[m.Name] {
			t.Fatalf("duplicate pair %s", m.Name)
		}
		seen[m.Name] = true
		if m.Apps[0] == m.Apps[1] {
			t.Fatalf("pair %s repeats a benchmark", m.Name)
		}
		if _, err := m.Benchmarks(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomMixes(t *testing.T) {
	a, err := RandomMixes(100, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomMixes(100, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 100 {
		t.Fatalf("got %d mixes", len(a))
	}
	for i := range a {
		if len(a[i].Apps) != 4 {
			t.Fatalf("mix %d has %d apps", i, len(a[i].Apps))
		}
		for j := range a[i].Apps {
			if a[i].Apps[j] != b[i].Apps[j] {
				t.Fatal("RandomMixes not deterministic")
			}
		}
		// Within a 4-core mix no benchmark repeats (15 >= 4).
		seen := map[string]bool{}
		for _, app := range a[i].Apps {
			if seen[app] {
				t.Fatalf("mix %d repeats %s", i, app)
			}
			seen[app] = true
		}
		if _, err := a[i].Benchmarks(); err != nil {
			t.Fatal(err)
		}
	}
	// More cores than benchmarks must still work (repetition allowed).
	big, err := RandomMixes(3, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(big[0].Apps) != 20 {
		t.Fatal("oversized mix truncated")
	}
	if _, err := RandomMixes(0, 4, 1); err == nil {
		t.Error("RandomMixes(0, ...) accepted")
	}
	if _, err := RandomMixes(1, 0, 1); err == nil {
		t.Error("RandomMixes(_, 0) accepted")
	}
}

func TestMixBenchmarksError(t *testing.T) {
	m := Mix{Name: "BAD", Apps: []string{"dea", "nope"}}
	if _, err := m.Benchmarks(); err == nil {
		t.Error("unknown app accepted")
	}
	if got := m.Categories(); got != "CCF+?" {
		t.Errorf("Categories = %q", got)
	}
}
