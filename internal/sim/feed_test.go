package sim

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tlacache/internal/runner"
	"tlacache/internal/statecheck"
	"tlacache/internal/telemetry"
	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

// faultyGen is a stream whose at-th Next call panics.
type faultyGen struct {
	trace.Generator
	calls, at int
}

func (g *faultyGen) Next(in *trace.Instr) {
	g.calls++
	if g.calls == g.at {
		panic("faulty stream gave up")
	}
	g.Generator.Next(in)
}

// waitGoroutines polls until the goroutine count drops back to want: a
// joined goroutine has signalled its exit but may not have been reaped.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want %d: the producer outlived its run", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// recoverRun runs f and returns what it panicked with, or nil.
func recoverRun(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

func faultyStreams(t *testing.T, at int) []trace.Generator {
	t.Helper()
	return []trace.Generator{
		replayOf(t, "sje", 5_000, 1),
		&faultyGen{Generator: replayOf(t, "lib", 5_000, 2), at: at},
	}
}

// TestStreamPanicReachesCaller pins the producer's failure contract: a
// stream that panics — in the first block, which the run fills itself,
// or later on the producer goroutine — makes RunGenerators panic on the
// calling goroutine, so runner.Run's recovery turns it into a job error
// instead of the panic killing the process. No goroutine outlives the
// run either way.
func TestStreamPanicReachesCaller(t *testing.T) {
	cfg := quickConfig(2, 20_000)
	base := runtime.NumGoroutine()
	for _, at := range []int{1, 30_000} {
		r := recoverRun(func() { RunGenerators(cfg, faultyStreams(t, at)) })
		if r == nil {
			t.Fatalf("at=%d: RunGenerators returned normally", at)
		}
		if msg, _ := r.(string); !strings.Contains(msg, "faulty stream gave up") {
			t.Errorf("at=%d: panic value %v does not carry the stream's panic", at, r)
		}
		waitGoroutines(t, base)
	}

	jobs := []runner.Job[MixResult]{{
		Name: "faulty",
		Run: func(context.Context) (MixResult, error) {
			return RunGenerators(cfg, faultyStreams(t, 30_000))
		},
	}}
	results, err := runner.Run(context.Background(), runner.Config{Workers: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "faulty stream gave up") {
		t.Errorf("job error = %v, want the stream's panic", results[0].Err)
	}
	waitGoroutines(t, base)

	// A panic on the run loop's side stops and joins the producer too:
	// the telemetry sink runs on the run loop at the first sample.
	sampled := quickConfig(2, 20_000)
	sampled.Telemetry = telemetry.NewRecorder(1_000)
	sampled.Telemetry.Sink = func(telemetry.Sample) { panic("sink gave up") }
	r := recoverRun(func() { RunMix(sampled, workload.Mix{Name: "P", Apps: []string{"sje", "lib"}}) })
	if msg, _ := r.(string); msg != "sink gave up" {
		t.Fatalf("run with a panicking sink: recovered %v, want the sink's panic", r)
	}
	waitGoroutines(t, base)

	// The pooled rings still serve a healthy run afterwards.
	if _, err := RunMix(cfg, workload.Mix{Name: "OK", Apps: []string{"sje", "lib"}}); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// slowGen is a stream slow enough that the producer is always behind
// the run loop, so a run ends with the producer inside a fill — and,
// almost always, inside this Next.
type slowGen struct {
	trace.Generator
	calls  int
	active atomic.Int32 // Next calls in flight
}

func (g *slowGen) Next(in *trace.Instr) {
	g.active.Add(1)
	defer g.active.Add(-1)
	if g.calls++; g.calls%256 == 0 {
		time.Sleep(time.Millisecond)
	}
	g.Generator.Next(in)
}

// TestFillShiftsIntoCoreSpace pins the per-core address offset applied
// at fill time: core c reads its stream's instructions moved up by
// c*coreSpacing, code and data addresses alike, under the stream's name.
func TestFillShiftsIntoCoreSpace(t *testing.T) {
	streams := []trace.Generator{replayOf(t, "sje", 100, 1), replayOf(t, "mcf", 100, 2)}
	refs := []trace.Generator{replayOf(t, "sje", 100, 1), replayOf(t, "mcf", 100, 2)}
	f := newFeeder(len(streams))
	f.start(streams)
	defer releaseFeeder(f)
	for c, ref := range refs {
		if f.names[c] != ref.Name() {
			t.Errorf("core %d named %q, want %q", c, f.names[c], ref.Name())
		}
		buf := f.cores[c].cur.buf
		if len(buf) == 0 {
			t.Fatalf("core %d: first block is empty", c)
		}
		off := uint64(c) * coreSpacing
		for i, got := range buf {
			var want trace.Instr
			ref.Next(&want)
			want.PC += off
			if want.Op != trace.OpNone {
				want.Addr += off
			}
			if got != want {
				t.Fatalf("core %d instruction %d = %+v, want %+v", c, i, got, want)
			}
		}
	}
}

// TestRunOwnsStreamsUntilReturn pins the join: RunGenerators does not
// return — and RunMix does not hand generators back to the pool — while
// the producer may still be inside a stream's Next.
func TestRunOwnsStreamsUntilReturn(t *testing.T) {
	cfg := quickConfig(2, 1_000)
	for i := 0; i < 3; i++ {
		slow := &slowGen{Generator: replayOf(t, "lib", 5_000, 2)}
		if _, err := RunGenerators(cfg, []trace.Generator{replayOf(t, "sje", 5_000, 1), slow}); err != nil {
			t.Fatal(err)
		}
		if slow.active.Load() != 0 {
			t.Fatal("RunGenerators returned while the producer was inside a stream's Next")
		}
	}
}

// allocsPerRun calls f once to warm it and then reports the mean heap
// allocations and bytes of the next runs calls, counted exactly and
// not truncated.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	f()
	c := statecheck.Allocs(func() {
		for range runs {
			f()
		}
	})
	return float64(c.Mallocs) / float64(runs), float64(c.Bytes) / float64(runs)
}

// TestFeedAllocsIndependentOfBudget proves the rings are pooled and
// filled in place: with warm pools a run's allocations do not grow with
// its instruction budget, so no block is allocated per fill.
func TestFeedAllocsIndependentOfBudget(t *testing.T) {
	mix := workload.Mix{Name: "A", Apps: []string{"sje", "lib"}}
	measure := func(budget uint64) (float64, float64) {
		cfg := quickConfig(2, budget)
		cfg.Warmup = 0
		return allocsPerRun(2, func() {
			if _, err := RunMix(cfg, mix); err != nil {
				t.Fatal(err)
			}
		})
	}
	shortAllocs, shortBytes := measure(10_000)
	longAllocs, longBytes := measure(1_000_000)
	// A 1M budget makes ~700 fills per core. The runtime may allocate a
	// fresh goroutine descriptor for a producer when the previous run's
	// has not been reaped yet (the race detector makes that common), so
	// one allocation per run of slack separates that noise from any
	// per-fill allocation.
	if longAllocs > shortAllocs+1 || longBytes > shortBytes+1024 {
		t.Errorf("10k budget: %.1f allocs, %.0f B per run; 1M budget: %.1f allocs, %.0f B per run",
			shortAllocs, shortBytes, longAllocs, longBytes)
	}
}

// TestWideRunsReuseGenerators pins the generator free list's bound: it
// holds a worker pool's worth of the widest run, so back-to-back 8-core
// runs rebuild no generator and allocate no more than 2-core runs do.
func TestWideRunsReuseGenerators(t *testing.T) {
	twice := func(cores int) float64 {
		apps := []string{"h26", "mcf", "dea", "xal", "sje", "wrf", "hmm", "sph"}[:cores]
		mix := workload.Mix{Name: "W", Apps: apps}
		cfg := quickConfig(cores, 1_000)
		run := func() {
			if _, err := RunMix(cfg, mix); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(3, func() { run(); run() })
	}
	if wide, narrow := twice(8), twice(2); wide > narrow {
		t.Errorf("two 8-core runs allocate %.1f times, two 2-core runs %.1f: the wide runs rebuild generators", wide, narrow)
	}
}
