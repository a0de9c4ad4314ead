package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tlacache/internal/telemetry"
)

// squareJobs builds n deterministic jobs returning i*i.
func squareJobs(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Name: fmt.Sprintf("job-%02d", i),
			Work: 1000,
			Run:  func(context.Context) (int, error) { return i * i, nil },
		}
	}
	return jobs
}

func values(results []Result[int]) []int {
	out := make([]int, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out
}

func TestRunMergesInSubmissionOrder(t *testing.T) {
	jobs := squareJobs(50)
	serial, err := Run(context.Background(), Config{Workers: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), Config{Workers: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(values(serial), values(parallel)) {
		t.Fatalf("parallel results diverge from serial:\n%v\n%v", values(serial), values(parallel))
	}
	for i, r := range parallel {
		if r.Value != i*i {
			t.Errorf("job %d value = %d, want %d", i, r.Value, i*i)
		}
		if r.Stat.Index != i || r.Stat.Name != jobs[i].Name {
			t.Errorf("job %d stat = %+v", i, r.Stat)
		}
	}
}

func TestRunEmptyAndDefaults(t *testing.T) {
	res, err := Run[int](context.Background(), Config{}, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v, %v", res, err)
	}
	// nil context and zero workers resolve to defaults.
	res2, err := Run(nil, Config{}, squareJobs(3)) //nolint:staticcheck // nil ctx is part of the contract
	if err != nil || len(res2) != 3 {
		t.Fatalf("defaulted run: %v, %v", res2, err)
	}
	if Workers(0) != runtime.NumCPU() || Workers(-1) != runtime.NumCPU() || Workers(5) != 5 {
		t.Error("Workers resolution wrong")
	}
}

func TestRunPanicRecovery(t *testing.T) {
	jobs := squareJobs(8)
	jobs[3].Name = "boom"
	jobs[3].Run = func(context.Context) (int, error) { panic("kaboom") }
	results, err := Run(context.Background(), Config{Workers: 4}, jobs)
	if err != nil {
		t.Fatalf("a panicking job must not fail the pool: %v", err)
	}
	if results[3].Err == nil {
		t.Fatal("panicking job reported no error")
	}
	msg := results[3].Err.Error()
	if !strings.Contains(msg, "boom") || !strings.Contains(msg, "kaboom") {
		t.Errorf("panic error does not name the job: %q", msg)
	}
	if results[3].Stat.Error == "" {
		t.Error("panic not recorded in job stat")
	}
	for i, r := range results {
		if i == 3 {
			continue
		}
		if r.Err != nil || r.Value != i*i {
			t.Errorf("sibling job %d damaged by the panic: %+v", i, r)
		}
	}
	if err := FirstError(results); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("FirstError = %v", err)
	}
	if err := FirstError(results[:3]); err != nil {
		t.Errorf("FirstError on clean prefix = %v", err)
	}
}

func TestRunJobErrorsDoNotStopPool(t *testing.T) {
	sentinel := errors.New("sim exploded")
	jobs := squareJobs(6)
	jobs[0].Run = func(context.Context) (int, error) { return 0, sentinel }
	results, err := Run(context.Background(), Config{Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, sentinel) {
		t.Errorf("job error = %v", results[0].Err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Err != nil {
			t.Errorf("job %d failed: %v", i, results[i].Err)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const n = 64
	var started sync.Once
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Name: fmt.Sprintf("slow-%02d", i),
			Run: func(context.Context) (int, error) {
				// The first dispatched job cancels the run, then lingers
				// long enough for the dispatcher to observe the
				// cancellation; the bulk of the queue must never start.
				started.Do(func() {
					cancel()
					time.Sleep(20 * time.Millisecond)
				})
				return i, nil
			},
		}
	}
	resCh := make(chan error, 1)
	go func() {
		_, err := Run(ctx, Config{Workers: 2}, jobs)
		resCh <- err
	}()
	select {
	case err := <-resCh:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return promptly")
	}

	// The pool's goroutines must all have exited.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutine leak: %d before, %d after cancellation", before, g)
	}

	// Undispatched jobs carry the context error.
	results, err := Run(ctx, Config{Workers: 2}, squareJobs(4))
	if err == nil {
		t.Fatal("run on a dead context succeeded")
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("undispatched job error = %v", r.Err)
		}
	}
}

func TestReporterSynchronizedLines(t *testing.T) {
	var buf bytes.Buffer
	rep := NewReporter(&safeWriter{w: &buf})
	jobs := squareJobs(32)
	for i := range jobs {
		jobs[i].Detail = func(v int) string { return fmt.Sprintf("square=%d", v) }
	}
	if _, err := Run(context.Background(), Config{Workers: 8, Reporter: rep}, jobs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 32 {
		t.Fatalf("%d progress lines, want 32:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		// Every line must be whole: count prefix, a job name, and the
		// detail suffix, never a torn mix of two lines.
		if !strings.Contains(line, "/32]") || !strings.Contains(line, "job-") ||
			!strings.Contains(line, "square=") {
			t.Errorf("torn or malformed progress line: %q", line)
		}
	}
	if done, total := rep.Counts(); done != 32 || total != 32 {
		t.Errorf("counts = %d/%d, want 32/32", done, total)
	}
}

// safeWriter serialises writes so the test can inspect interleaving at
// the line level without itself racing on bytes.Buffer.
type safeWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *safeWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestNilReporterAndCollectorAreSafe(t *testing.T) {
	var rep *Reporter
	rep.Printf("into the void %d\n", 1)
	if d, tot := rep.Counts(); d != 0 || tot != 0 {
		t.Error("nil reporter has counts")
	}
	if NewReporter(nil) != nil {
		t.Error("NewReporter(nil) must return nil")
	}
	var col *Collector
	col.add(JobStat{Name: "x"})
	col.AddTelemetry("x", telemetry.Summary{})
	if col.Jobs() != nil || col.Telemetry() != nil {
		t.Error("nil collector has jobs or telemetry")
	}
	if _, err := Run(context.Background(), Config{Workers: 2}, squareJobs(4)); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorAndManifest(t *testing.T) {
	col := NewCollector()
	jobs := squareJobs(10)
	jobs[7].Run = func(context.Context) (int, error) { return 0, errors.New("broken") }
	if _, err := Run(context.Background(), Config{Workers: 4, Collector: col}, jobs); err != nil {
		t.Fatal(err)
	}
	stats := col.Jobs()
	if len(stats) != 10 {
		t.Fatalf("collected %d stats, want 10", len(stats))
	}
	for i, s := range stats {
		if s.Index != i {
			t.Fatalf("stats not sorted by index: %+v", stats)
		}
		if s.Instructions != 1000 {
			t.Errorf("job %d instructions = %d", i, s.Instructions)
		}
		if s.WallSeconds < 0 {
			t.Errorf("job %d wall = %v", i, s.WallSeconds)
		}
	}

	m := col.Manifest("demo", 4, 2*time.Second)
	m.Seed = 7
	m.Options = map[string]uint64{"instructions": 1000}
	if m.JobCount != 10 || m.FailedJobs != 1 {
		t.Errorf("manifest counts: %d jobs, %d failed", m.JobCount, m.FailedJobs)
	}
	if m.TotalInstructions != 10_000 {
		t.Errorf("total instructions = %d", m.TotalInstructions)
	}
	if m.AggregateIPS != 5000 {
		t.Errorf("aggregate IPS = %v", m.AggregateIPS)
	}

	dir := t.TempDir()
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "demo-manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Experiment != "demo" || back.Seed != 7 || back.Workers != 4 ||
		len(back.Jobs) != 10 || back.Jobs[7].Error == "" {
		t.Errorf("manifest round-trip mangled: %+v", back)
	}
	if back.Env.GoVersion == "" || back.Env.OS == "" || back.Env.Arch == "" {
		t.Errorf("manifest environment not self-describing: %+v", back.Env)
	}
}

// TestZeroWallTimeThroughputIsZero pins the division guard: a job (or
// whole run) that finishes within clock resolution reports 0
// instructions/sec, never ±Inf or NaN. Non-finite values were the real
// failure mode — encoding/json refuses to marshal them, so a single
// instant job would make the entire manifest unwritable.
func TestZeroWallTimeThroughputIsZero(t *testing.T) {
	for _, tc := range []struct {
		work uint64
		secs float64
		want float64
	}{
		{1000, 0, 0},  // work done in zero time: would be +Inf
		{0, 0, 0},     // no work, no time: would be NaN
		{1000, -1, 0}, // clock went backwards: would be negative
		{1000, 0.5, 2000},
	} {
		got := ipsOf(tc.work, tc.secs)
		if got != tc.want || math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("ipsOf(%d, %v) = %v, want %v", tc.work, tc.secs, got, tc.want)
		}
	}

	// A zero-duration manifest must carry IPS 0 and still encode.
	col := NewCollector()
	col.add(JobStat{Index: 0, Name: "instant", Instructions: 1 << 20})
	m := col.Manifest("instant", 1, 0)
	if m.AggregateIPS != 0 {
		t.Errorf("zero-wall manifest AggregateIPS = %v, want 0", m.AggregateIPS)
	}
	if _, err := json.Marshal(m); err != nil {
		t.Fatalf("zero-wall manifest does not marshal: %v", err)
	}
	if err := WriteManifest(t.TempDir(), m); err != nil {
		t.Fatalf("zero-wall manifest does not write: %v", err)
	}
}

func TestCollectEnv(t *testing.T) {
	e := CollectEnv()
	if e.GoVersion != runtime.Version() || e.OS != runtime.GOOS || e.Arch != runtime.GOARCH {
		t.Errorf("env identity wrong: %+v", e)
	}
	if e.GOMAXPROCS <= 0 || e.NumCPU <= 0 {
		t.Errorf("env CPU info wrong: %+v", e)
	}
}

func TestCollectorTelemetrySummaries(t *testing.T) {
	col := NewCollector()
	rec := telemetry.NewRecorder(0)
	rec.Finish(telemetry.Counts{telemetry.EvInclusionVictim: 2})
	col.AddTelemetry("MIX_01/QBS", rec.Summary())
	col.AddTelemetry("MIX_00/QBS", telemetry.NewRecorder(0).Summary())

	sums := col.Telemetry()
	if len(sums) != 2 || sums[0].Name != "MIX_00/QBS" || sums[1].Name != "MIX_01/QBS" {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[1].Events["inclusion_victim"] != 2 {
		t.Errorf("summary events = %v", sums[1].Events)
	}

	m := col.Manifest("demo", 1, time.Second)
	if len(m.Telemetry) != 2 {
		t.Fatalf("manifest telemetry = %+v", m.Telemetry)
	}
	// And it survives the JSON round trip.
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Telemetry[1].Events["inclusion_victim"] != 2 {
		t.Errorf("telemetry round-trip mangled: %+v", back.Telemetry)
	}
}

// TestRunUpdatesLiveCounters checks the expvar introspection counters
// climb as jobs complete.
func TestRunUpdatesLiveCounters(t *testing.T) {
	beforeJobs := telemetry.JobsCompleted()
	beforeInstr := telemetry.InstructionsSimulated()
	if _, err := Run(context.Background(), Config{Workers: 2}, squareJobs(5)); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.JobsCompleted() - beforeJobs; got != 5 {
		t.Errorf("jobs counter advanced by %d, want 5", got)
	}
	if got := telemetry.InstructionsSimulated() - beforeInstr; got != 5000 {
		t.Errorf("instructions counter advanced by %d, want 5000", got)
	}
}
