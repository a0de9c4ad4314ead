package decision

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"tlacache/internal/cli"
	"tlacache/internal/hierarchy"
	"tlacache/internal/sim"
	"tlacache/internal/telemetry"
	"tlacache/internal/workload"
)

// smallConfig is a machine under real LLC pressure in a fast run: a
// 256 KiB LLC under two cores of default-size private caches.
func smallConfig(t *testing.T) (sim.Config, workload.Mix) {
	t.Helper()
	mix, err := cli.ResolveMix("sje,lib")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(len(mix.Apps))
	cfg.Instructions = 60_000
	cfg.Warmup = 120_000
	cfg.Hierarchy.LLCSize = 256 << 10
	return cfg, mix
}

// renders is how many times a determinism test renders one result. A
// map-ordered loop over two entries (the two cores of smallConfig)
// keeps its order in 7 of 8 renders, so 64 renders all agree by chance
// about once in 4,500 runs.
const renders = 64

// teeTracer fans records out to two tracers, so one run can feed the
// in-memory log and a binary writer at once.
type teeTracer struct{ a, b telemetry.DecisionTracer }

func (t teeTracer) Decision(d *telemetry.Decision) {
	t.a.Decision(d)
	t.b.Decision(d)
}

// One run, three views: the streaming binary analysis, the streaming
// JSONL analysis, and the in-memory record analysis must produce the
// same report.
func TestAnalyzeViewsAgree(t *testing.T) {
	cfg, mix := smallConfig(t)
	if err := cli.ApplyPolicy(&cfg.Hierarchy, "baseline"); err != nil {
		t.Fatal(err)
	}
	meta := hierarchy.DecisionMetaFor(cfg.Hierarchy)
	var bin, jsonl bytes.Buffer
	bw, err := telemetry.NewDecisionWriter(&bin, meta)
	if err != nil {
		t.Fatal(err)
	}
	jw, err := telemetry.NewDecisionJSONLWriter(&jsonl, meta)
	if err != nil {
		t.Fatal(err)
	}
	log := &telemetry.DecisionLog{}
	cfg.Telemetry = telemetry.NewRecorder(0)
	cfg.Telemetry.Decisions = teeTracer{a: log, b: teeTracer{a: bw, b: jw}}
	if _, err := sim.RunMix(cfg, mix); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(log.Records) == 0 {
		t.Fatal("no decisions captured; shrink the LLC or lengthen the run")
	}

	fromLog, err := AnalyzeRecords(meta, log.Records)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := Analyze(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromJSONL, err := Analyze(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromLog, fromBin) {
		t.Errorf("binary analysis diverges from in-memory records:\n bin %+v\n log %+v", fromBin, fromLog)
	}
	if !reflect.DeepEqual(fromLog, fromJSONL) {
		t.Errorf("JSONL analysis diverges from in-memory records:\n jsonl %+v\n log %+v", fromJSONL, fromLog)
	}
	if fromLog.Decisions != uint64(len(log.Records)) {
		t.Errorf("report counts %d decisions, log holds %d", fromLog.Decisions, len(log.Records))
	}
	// Rendering the same report is byte-identical every time.
	var first bytes.Buffer
	if err := fromLog.Render(&first); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < renders; i++ {
		var again bytes.Buffer
		if err := fromLog.Render(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("render %d differs from the first:\n--- first\n%s\n--- render %d\n%s",
				i, first.Bytes(), i, again.Bytes())
		}
	}
}

// The counterfactual engine must be byte-deterministic across runs and
// independent of GOMAXPROCS — the acceptance bar for trusting its
// reports.
func TestCounterfactualDeterministic(t *testing.T) {
	cfg, mix := smallConfig(t)
	cc := CounterfactualConfig{Sim: cfg, Mix: mix, BasePolicy: "baseline", AltPolicy: "qbs"}

	runAt := func(procs int) *Counterfactual {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		res, err := RunCounterfactual(cc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	render := func(res *Counterfactual) []byte {
		var b bytes.Buffer
		if err := res.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	runs := []struct {
		procs int
		res   *Counterfactual
	}{{1, runAt(1)}, {8, runAt(8)}}
	first := render(runs[0].res)
	if len(first) == 0 {
		t.Fatal("empty render")
	}
	for i := 0; i < renders; i++ {
		for _, r := range runs {
			if again := render(r.res); !bytes.Equal(first, again) {
				t.Fatalf("counterfactual output differs across runs/GOMAXPROCS:\n--- procs=1\n%s\n--- procs=%d, render %d\n%s",
					first, r.procs, i, again)
			}
		}
	}
}

// The counterfactual's ground-truth leg must agree with an independent
// direct simulation of the alternative policy, and the attached tracer
// must not perturb the base leg.
func TestCounterfactualAgreesWithDirectSim(t *testing.T) {
	cfg, mix := smallConfig(t)
	res, err := RunCounterfactual(CounterfactualConfig{
		Sim: cfg, Mix: mix, BasePolicy: "baseline", AltPolicy: "qbs",
	})
	if err != nil {
		t.Fatal(err)
	}

	baseCfg := cfg
	if err := cli.ApplyPolicy(&baseCfg.Hierarchy, "baseline"); err != nil {
		t.Fatal(err)
	}
	baseDirect, err := sim.RunMix(baseCfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Base, baseDirect) {
		t.Errorf("tracer-attached base run diverges from a plain run:\nengine %+v\ndirect %+v",
			res.Base, baseDirect)
	}

	altCfg := cfg
	if err := cli.ApplyPolicy(&altCfg.Hierarchy, "qbs"); err != nil {
		t.Fatal(err)
	}
	altDirect, err := sim.RunMix(altCfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Alt, altDirect) {
		t.Errorf("counterfactual alt leg diverges from a direct simulation:\nengine %+v\ndirect %+v",
			res.Alt, altDirect)
	}

	// The engine must have observed real evictions for the comparison to
	// mean anything.
	if res.Report.Evictions == 0 {
		t.Error("no evictions in the base trace; the counterfactual is vacuous")
	}
}

func TestCounterfactualRejectsObservers(t *testing.T) {
	cfg, mix := smallConfig(t)
	cfg.Telemetry = telemetry.NewRecorder(0)
	_, err := RunCounterfactual(CounterfactualConfig{
		Sim: cfg, Mix: mix, BasePolicy: "baseline", AltPolicy: "qbs",
	})
	if err == nil {
		t.Fatal("config carrying a recorder was accepted; the engine owns its observers")
	}
}

func TestReportAddValidates(t *testing.T) {
	rep := NewReport(telemetry.DecisionMeta{Sets: 4, Assoc: 2, Policy: "LRU", Cores: 1})
	bad := telemetry.Decision{ChosenWay: 5, Candidates: []telemetry.DecisionCandidate{{Way: 0}, {Way: 1}}}
	if err := rep.Add(&bad); err == nil {
		t.Error("out-of-range ChosenWay accepted")
	}
	bad = telemetry.Decision{Core: 3, ChosenWay: 0, Candidates: []telemetry.DecisionCandidate{{Way: 0}, {Way: 1}}}
	if err := rep.Add(&bad); err == nil {
		t.Error("out-of-range Core accepted")
	}
	bad = telemetry.Decision{ChosenWay: 0, QBSWay: 9,
		Candidates: []telemetry.DecisionCandidate{{Way: 0, Valid: true}, {Way: 1}}}
	if err := rep.Add(&bad); err == nil {
		t.Error("out-of-range QBSWay accepted")
	}
}
