package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"tlacache/internal/hierarchy"
	"tlacache/internal/runner"
	"tlacache/internal/telemetry"
	"tlacache/internal/workload"
)

// renders is how many times each job writes its interval CSV and JSONL.
// Go starts a small map's iteration at a random one of its eight slots,
// so two renders that range over a map of the four cores agree by
// chance 28 times in 64, and one render per job could pass; the twelve
// render pairs of the batch all agree by chance about once in 20,000
// runs.
const renders = 4

// artifacts holds one job's byte-determinism outputs besides its
// result: the interval CSV and JSONL (each rendered renders times) and
// the TLAD1 and JSONL decision traces.
type artifacts struct {
	csv, jsonl, tlad, decisions bytes.Buffer
}

// teeTracer fans records out to two tracers, so one run can feed both
// trace writers at once.
type teeTracer struct{ a, b telemetry.DecisionTracer }

func (t teeTracer) Decision(d *telemetry.Decision) {
	t.a.Decision(d)
	t.b.Decision(d)
}

// tracedMix runs mix on cfg with a sampling recorder whose decisions
// feed both trace writers, and writes every artifact into a.
func tracedMix(cfg Config, mix workload.Mix, a *artifacts) (MixResult, error) {
	meta := hierarchy.DecisionMetaFor(cfg.Hierarchy)
	bin, err := telemetry.NewDecisionWriter(&a.tlad, meta)
	if err != nil {
		return MixResult{}, err
	}
	jw, err := telemetry.NewDecisionJSONLWriter(&a.decisions, meta)
	if err != nil {
		return MixResult{}, err
	}
	cfg.Telemetry = telemetry.NewRecorder(3_000)
	cfg.Telemetry.Decisions = teeTracer{a: bin, b: jw}
	res, err := RunMix(cfg, mix)
	if err != nil {
		return res, err
	}
	if err := bin.Flush(); err != nil {
		return res, err
	}
	if err := jw.Flush(); err != nil {
		return res, err
	}
	for range renders {
		if err := cfg.Telemetry.WriteCSV(&a.csv); err != nil {
			return res, err
		}
		if err := cfg.Telemetry.WriteJSONL(&a.jsonl); err != nil {
			return res, err
		}
	}
	return res, nil
}

// runBatch executes the same three-policy batch, a 4-core mix on a
// small LLC with every run traced, under the given GOMAXPROCS. It
// returns the marshaled results, the run manifest and each job's
// artifacts.
func runBatch(t *testing.T, procs int) ([]byte, runner.Manifest, []artifacts) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)

	variants := []struct {
		name string
		tla  hierarchy.TLAPolicy
	}{
		{"baseline", hierarchy.TLANone},
		{"tlh", hierarchy.TLATLH},
		{"qbs", hierarchy.TLAQBS},
	}
	mix := workload.Mix{Name: "DET", Apps: []string{"sje", "lib", "dea", "mcf"}}
	arts := make([]artifacts, len(variants))
	jobs := make([]runner.Job[MixResult], 0, len(variants))
	for i, v := range variants {
		cfg := quickConfig(len(mix.Apps), 30_000)
		cfg.Hierarchy.LLCSize = 256 << 10
		cfg.Hierarchy.TLA = v.tla
		jobs = append(jobs, runner.Job[MixResult]{
			Name: v.name,
			Work: uint64(len(mix.Apps)) * (cfg.Instructions + cfg.Warmup),
			Run: func(ctx context.Context) (MixResult, error) {
				return tracedMix(cfg, mix, &arts[i])
			},
		})
	}

	coll := runner.NewCollector()
	start := time.Now()
	results, err := runner.Run(context.Background(), runner.Config{Workers: 4, Collector: coll}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]MixResult, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", jobs[i].Name, r.Err)
		}
		vals[i] = r.Value
	}
	data, err := json.MarshalIndent(vals, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data, coll.Manifest("determinism", 4, time.Since(start)), arts
}

// normalizeManifest zeroes the fields that legitimately vary between
// runs — host environment and wall-clock timing — leaving everything
// that must be reproducible.
func normalizeManifest(m *runner.Manifest) {
	m.Env = runner.EnvInfo{}
	m.TotalWallSeconds = 0
	m.AggregateIPS = 0
	for i := range m.Jobs {
		m.Jobs[i].WallSeconds = 0
		m.Jobs[i].IPS = 0
	}
}

// TestDeterminismAcrossGOMAXPROCS is the regression gate for the
// runner's core promise: simulation results are byte-identical no
// matter how the scheduler interleaves the worker pool. Everything in
// the manifest except environment and timing must match too, and so
// must every run's interval CSV and JSONL and both decision traces.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the same batch twice")
	}
	serial, serialMan, serialArts := runBatch(t, 1)
	parallel, parallelMan, parallelArts := runBatch(t, 8)

	if !bytes.Equal(serial, parallel) {
		t.Errorf("results differ between GOMAXPROCS=1 and GOMAXPROCS=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}

	normalizeManifest(&serialMan)
	normalizeManifest(&parallelMan)
	sm, err := json.Marshal(serialMan)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := json.Marshal(parallelMan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sm, pm) {
		t.Errorf("manifests differ beyond env/timing:\n--- serial ---\n%s\n--- parallel ---\n%s", sm, pm)
	}

	for i := range serialArts {
		s, p := &serialArts[i], &parallelArts[i]
		for _, a := range []struct {
			name string
			s, p *bytes.Buffer
		}{
			{"interval CSV", &s.csv, &p.csv},
			{"interval JSONL", &s.jsonl, &p.jsonl},
			{"TLAD1 decision trace", &s.tlad, &p.tlad},
			{"JSONL decision trace", &s.decisions, &p.decisions},
		} {
			if a.s.Len() == 0 {
				t.Errorf("job %d: empty %s", i, a.name)
			}
			if !bytes.Equal(a.s.Bytes(), a.p.Bytes()) {
				t.Errorf("job %d: %s differs between GOMAXPROCS=1 (%d bytes) and GOMAXPROCS=8 (%d bytes)",
					i, a.name, a.s.Len(), a.p.Len())
			}
		}
	}
}
