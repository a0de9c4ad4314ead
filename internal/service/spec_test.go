package service

import (
	"reflect"
	"strings"
	"testing"

	"tlacache/internal/statecheck"
	"tlacache/internal/telemetry"
)

func u64(v uint64) *uint64 { return &v }

func TestNormalizeDefaults(t *testing.T) {
	n, err := JobSpec{Apps: []string{"sje", "lib"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Policy != "baseline" || n.Seed != 1 ||
		n.Instructions != DefaultInstructions || n.Warmup == nil || *n.Warmup != DefaultWarmup {
		t.Errorf("defaults not applied: %+v", n)
	}
	// Normalisation is idempotent.
	again, err := n.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, k1, _ := SpecKey(n); true {
		if _, k2, _ := SpecKey(again); k1 != k2 {
			t.Errorf("normalize not idempotent: %s vs %s", k1, k2)
		}
	}
}

// A mix name and its explicit app list are the same request and must
// share one cache key.
func TestMixAndAppsShareKey(t *testing.T) {
	_, byMix, err := SpecKey(JobSpec{Mix: "MIX_00"})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := JobSpec{Mix: "MIX_00"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, byApps, err := SpecKey(JobSpec{Apps: norm.Apps})
	if err != nil {
		t.Fatal(err)
	}
	if byMix != byApps {
		t.Errorf("MIX_00 and its app list hash differently: %s vs %s", byMix, byApps)
	}
}

func TestSpecValidation(t *testing.T) {
	for name, spec := range map[string]JobSpec{
		"empty":         {},
		"both":          {Mix: "MIX_00", Apps: []string{"sje"}},
		"unknown-app":   {Apps: []string{"nope"}},
		"unknown-mix":   {Mix: "MIX_99"},
		"bad-policy":    {Apps: []string{"sje", "lib"}, Policy: "wat"},
		"bad-llc":       {Apps: []string{"sje", "lib"}, LLC: "huge"},
		"zero-measured": {Apps: []string{"sje", "lib"}, Instructions: 0, Warmup: u64(0)},
	} {
		t.Run(name, func(t *testing.T) {
			if name == "zero-measured" {
				// Zero instructions normalises to the default, so this
				// particular spec is actually fine — it documents that
				// explicit warmup 0 is legal.
				if _, _, err := SpecKey(spec); err != nil {
					t.Fatalf("explicit zero warmup should be legal: %v", err)
				}
				return
			}
			if _, _, err := SpecKey(spec); err == nil {
				t.Fatalf("spec %+v unexpectedly valid", spec)
			}
		})
	}
}

// Execute must be a pure function of the spec: two runs produce
// byte-identical deterministic sections (spec, result, telemetry).
// Each manifest is encoded several times, and one spec runs eight
// apps, so an order that changes from one encoding to the next (a map
// range) shows instead of agreeing by chance.
func TestExecuteDeterministic(t *testing.T) {
	const encodes = 4
	for _, spec := range []JobSpec{
		{Apps: []string{"sje", "lib"}, Policy: "qbs", Seed: 3,
			Instructions: 60_000, Warmup: u64(20_000)},
		{Apps: []string{"sje", "lib", "dea", "mcf", "bzi", "wrf", "gob", "pov"}, Policy: "eci", Seed: 3,
			Instructions: 20_000, Warmup: u64(20_000)},
	} {
		m1, err := Execute(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := Execute(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		det := func(m Manifest) string {
			m.Env = m1.Env // normalise the annotation fields
			m.WallSeconds = 0
			b, err := EncodeManifest(m)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		want := det(m1)
		for i := 0; i < encodes; i++ {
			for _, m := range []Manifest{m1, m2} {
				if got := det(m); got != want {
					t.Fatalf("%v: Execute not deterministic:\n%s\nvs\n%s", spec.Apps, want, got)
				}
			}
		}
		if m1.Key == "" || !strings.HasPrefix(m1.Key, KeyVersion+":") {
			t.Errorf("manifest key malformed: %q", m1.Key)
		}
		if m1.Result.Throughput <= 0 {
			t.Errorf("throughput %f not positive", m1.Result.Throughput)
		}
	}
}

// The interval sink streams samples live and samples stay out of the
// manifest, so Interval must not perturb the key.
func TestExecuteIntervalSink(t *testing.T) {
	spec := JobSpec{Apps: []string{"sje", "lib"}, Seed: 2,
		Instructions: 40_000, Warmup: u64(0), Interval: 10_000}
	var got []telemetry.Sample
	m, err := Execute(spec, func(s telemetry.Sample) { got = append(got, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("sink received no samples")
	}
	plain := spec
	plain.Interval = 0
	_, kPlain, err := SpecKey(plain)
	if err != nil {
		t.Fatal(err)
	}
	if m.Key != kPlain {
		t.Errorf("interval perturbed the key: %s vs %s", m.Key, kPlain)
	}
	data, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "\"delta_instructions\"") {
		t.Error("interval samples leaked into the manifest")
	}
}

// TestManifestRoundTrip requires two manifests to survive
// EncodeManifest and DecodeManifest field for field: one with every
// leaf set, the fields behind its pointers, slices and maps included,
// so a field the stored form drops (a json:"-" tag, say) fails here
// before it is lost from every cached result; and one a real run
// produced.
func TestManifestRoundTrip(t *testing.T) {
	var filled Manifest
	leaves := 0
	statecheck.Leaves(&filled, func(_ string, v reflect.Value) {
		statecheck.Change(v)
		leaves++
	})
	run, err := Execute(JobSpec{Apps: []string{"sje", "lib"}, Instructions: 30_000, Warmup: u64(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]Manifest{"filled": filled, "executed": run} {
		data, err := EncodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		if data[len(data)-1] != '\n' {
			t.Errorf("%s manifest misses its trailing newline", name)
		}
		back, err := DecodeManifest(data)
		if err != nil {
			t.Fatal(err)
		}
		if d := statecheck.Diff(back, m); d != "" {
			t.Errorf("%s manifest (%d leaves set by the fill) lost data in a round trip: %s", name, leaves, d)
		}
	}
}

func TestWork(t *testing.T) {
	s := JobSpec{Apps: []string{"a", "b"}, Instructions: 10, Warmup: u64(5)}
	if got := s.Work(); got != 30 {
		t.Errorf("Work = %d, want 30", got)
	}
}

func TestMixes(t *testing.T) {
	ms := Mixes()
	if len(ms) != 12 || ms[0] != "MIX_00" {
		t.Errorf("Mixes() = %v", ms)
	}
}

// Normalize must be idempotent: Execute re-normalizes defensively, so
// a normalized mix spec (which keeps both Mix and its resolved Apps)
// must re-validate cleanly. Regression: mix-name submissions to the
// daemon used to fail at execute time with "sets both mix and apps".
func TestNormalizeIdempotent(t *testing.T) {
	norm, err := JobSpec{Mix: "MIX_00"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	again, err := norm.Normalize()
	if err != nil {
		t.Fatalf("re-normalizing a normalized spec: %v", err)
	}
	if !reflect.DeepEqual(norm, again) {
		t.Errorf("normalization not idempotent:\n first %+v\nsecond %+v", norm, again)
	}
}
