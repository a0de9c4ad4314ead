package bench

import (
	"encoding/json"
	"flag"
	"os"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json (runs every workload at full size for each golden seed)")

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, m, q3 := Quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if got := RelIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("RelIQR = %g", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median = %g, want 2", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{19: 0, 20: 50, 99: 50, 100: 90, 600: 90, 999: 90, 1000: 99, 5900: 99, 10000: 99.9} {
		if got := TailPercentile(n); got != want {
			t.Errorf("TailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := Percentile(xs, 90); got != 90 {
		t.Errorf("Percentile(1..100, 90) = %g, want 90", got)
	}
}

func TestSpecStreamDeterministic(t *testing.T) {
	const n = 300
	a, err := newSpecStream(7, n, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newSpecStream(7, n, 100_000)
	c, _ := newSpecStream(8, n, 100_000)
	if !slices.EqualFunc(a.bodies, b.bodies, slices.Equal) || !slices.Equal(a.reqs, b.reqs) {
		t.Fatal("same seed gave different streams")
	}
	if slices.Equal(a.reqs, c.reqs) || slices.EqualFunc(a.bodies, c.bodies, slices.Equal) {
		t.Fatal("different seeds gave the same stream")
	}
	if len(a.reqs) != newEvery*n {
		t.Fatalf("%d requests, want %d", len(a.reqs), newEvery*n)
	}
	seen := map[string]bool{}
	for _, body := range a.bodies {
		seen[string(body)] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct specs, want %d", len(seen), n)
	}
	counts := make([]int, n)
	introduced := 0
	for i, s := range a.reqs {
		if i%newEvery == 0 {
			if s != introduced {
				t.Fatalf("request %d introduces spec %d, want %d", i, s, introduced)
			}
			introduced++
		} else if s >= introduced {
			t.Fatalf("request %d repeats spec %d before it was introduced", i, s)
		}
		counts[s]++
	}
	// Zipf by age: the oldest specs draw the most repeats.
	if counts[0] <= 10*counts[n/2] {
		t.Errorf("spec 0 has %d requests, spec %d has %d; want a Zipf skew", counts[0], n/2, counts[n/2])
	}
}

func TestSelfShares(t *testing.T) {
	top := `File: tlabench
Type: cpu
Showing nodes accounting for 1.90s, 95.00% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      0.80s 40.00%  tlacache/internal/trace.(*Synthetic).Next (inline)
     0.40s 20.00% 60.00%      1.00s 50.00%  tlacache/internal/hierarchy.(*Hierarchy).AccessAt
     0.30s 15.00% 75.00%      0.30s 15.00%  tlacache/internal/service/api.(*Server).handleSubmit
     0.20s 10.00% 85.00%      0.20s 10.00%  runtime.scanobject
     0.10s  5.00% 90.00%      0.10s  5.00%  tlacache/internal/workload.ByName
     0.10s  5.00% 95.00%      0.10s  5.00%  encoding/json.Marshal
`
	want := map[string]float64{"trace": 0.4, "hierarchy": 0.2, "service": 0.15, "runtime_gc": 0.1, "other": 0.1}
	got := selfShares(top)
	for m, w := range want {
		if d := got[m] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %g, want %g", m, got[m], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
}

// TestQuickRuns smokes every workload in process, untraced and traced,
// and checks the outputs, the metric sets, and the quick golden digests.
func TestQuickRuns(t *testing.T) {
	for _, w := range Workloads() {
		digests := map[bool]string{}
		for _, traced := range []bool{false, true} {
			r, err := Run(w.Name, Options{Seed: 1, Quick: true, Traced: traced, TempDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.Name, traced, r.Failed, r.Attempted, r.Failures)
			}
			want := EndToEnd[2:] // setup_s and peak_rss_mb come from tlabench
			if traced {
				want = PerLayer
			}
			for _, m := range want {
				if _, ok := r.Metric(m); !ok {
					t.Errorf("%s traced=%v: no %s", w.Name, traced, m)
				}
			}
			digests[traced] = r.Digest
		}
		if digests[false] == "" || digests[false] != digests[true] {
			t.Errorf("%s: untraced digest %q, traced %q", w.Name, digests[false], digests[true])
		}
	}
}

// TestGolden checks the quick digests for every golden seed; with
// -update it rewrites testdata/golden.json at both sizes.
func TestGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("short")
	}
	golden := map[string]string{}
	for _, w := range Workloads() {
		for _, seed := range GoldenSeeds {
			for _, quick := range []bool{true, false} {
				if !quick && !*update {
					continue
				}
				r, err := Run(w.Name, Options{Seed: seed, Quick: quick, TempDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				key := GoldenKey(w.Name, seed, quick)
				golden[key] = r.Digest
				if want, ok := Golden(key); !*update && (!ok || want != r.Digest) {
					t.Errorf("%s: digest %s, golden %q", key, r.Digest, want)
				}
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the workloads and metrics this package reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var want []string
	for _, w := range Workloads() {
		want = append(want, w.Name+": "+w.Why)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %q, want %q", names, want)
	}
	for _, c := range []struct {
		got  []struct{ Name string }
		want []string
	}{{spec.EndToEnd, EndToEnd}, {spec.PerLayer, PerLayer}} {
		var got []string
		for _, m := range c.got {
			got = append(got, m.Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("BENCHMARK.json lists %q, want %q", got, c.want)
		}
	}
}
