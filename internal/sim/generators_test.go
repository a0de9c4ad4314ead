package sim

import (
	"reflect"
	"testing"

	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

func replayOf(t *testing.T, bench string, n int, seed uint64) *trace.Replay {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGenerator(seed)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Instr, n)
	for i := range recs {
		g.Next(&recs[i])
	}
	r, err := trace.NewReplay(bench+"-replay", recs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunGeneratorsBasics(t *testing.T) {
	cfg := quickConfig(2, 30_000)
	streams := []trace.Generator{
		replayOf(t, "sje", 50_000, 1),
		replayOf(t, "mcf", 50_000, 2),
	}
	res, err := RunGenerators(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
	if res.Apps[0].Benchmark != "sje-replay" || res.Apps[1].Benchmark != "mcf-replay" {
		t.Fatalf("names = %v", res.Mix.Apps)
	}
	for i, a := range res.Apps {
		if a.IPC <= 0 || a.IPC > 4 {
			t.Errorf("app %d IPC = %v", i, a.IPC)
		}
	}
}

func TestRunGeneratorsMatchesRunMixForSyntheticStreams(t *testing.T) {
	// Feeding RunGenerators the exact generators RunMix would build
	// must give identical results.
	cfg := quickConfig(2, 25_000)
	mix := workload.Mix{Name: "X", Apps: []string{"dea", "lib"}}
	want, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	var streams []trace.Generator
	for i, app := range mix.Apps {
		b, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		g, err := b.NewGenerator(cfg.Seed + uint64(i)*0x9e37)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, g)
	}
	got, err := RunGenerators(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	// RunGenerators names its mix "custom"; everything else — every
	// per-app counter, cycle count and IPC, the traffic and the totals —
	// must match field for field.
	if !reflect.DeepEqual(got.Mix.Apps, mix.Apps) {
		t.Fatalf("RunGenerators apps = %v, want %v", got.Mix.Apps, mix.Apps)
	}
	got.Mix = want.Mix
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunGenerators diverged from RunMix:\n got %+v\nwant %+v", got, want)
	}
}

func TestRunGeneratorsErrors(t *testing.T) {
	cfg := quickConfig(2, 10_000)
	if _, err := RunGenerators(cfg, []trace.Generator{replayOf(t, "sje", 1000, 1)}); err == nil {
		t.Error("wrong stream count accepted")
	}
	if _, err := RunGenerators(cfg, []trace.Generator{nil, nil}); err == nil {
		t.Error("nil streams accepted")
	}
	bad := cfg
	bad.Instructions = 0
	if _, err := RunGenerators(bad, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunIsolationPropagatesErrors(t *testing.T) {
	cfg := quickConfig(2, 10_000)
	cfg.CPU.Width = 0 // invalid
	b, err := workload.ByName("dea")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunIsolation(cfg, b); err == nil {
		t.Error("invalid CPU config accepted")
	}
	// A benchmark with a broken profile must also surface.
	bad := b
	bad.Profile.CodeBytes = 0
	if _, err := RunIsolation(quickConfig(2, 10_000), bad); err == nil {
		t.Error("invalid profile accepted")
	}
}
