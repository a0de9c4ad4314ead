package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Summary(); s.Count != 0 || s.Buckets != nil {
		t.Fatalf("empty summary = %+v", s)
	}
	for _, v := range []uint64{0, 1, 1, 2, 5, 100} {
		h.Observe(v)
	}
	s := h.Summary()
	if s.Count != 6 || s.Sum != 109 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean != 109.0/6 {
		t.Errorf("mean = %v", s.Mean)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		if b.Lo > b.Hi {
			t.Errorf("bucket %+v inverted", b)
		}
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Errorf("buckets sum to %d, want %d", bucketTotal, s.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1) // single-value buckets make quantiles exact
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1 {
			t.Errorf("Quantile(%v) = %v, want 1", q, got)
		}
	}
	h.Observe(1000)
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("median = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("max quantile = %v, want 1000", got)
	}
	// Quantiles must be monotone in q.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.1 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestRecorderCountsAndSummary(t *testing.T) {
	r := NewRecorder(0)
	r.ECIRescue(0x100)
	r.Finish(Counts{EvInclusionVictim: 2, EvBackInvalidate: 1, EvTLHHint: 1, EvECIRescue: 9})
	s := r.Summary()
	want := map[string]uint64{"inclusion_victim": 2, "back_invalidate": 1, "tlh_hint": 1, "eci_rescue": 1}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("summary events = %v, want %v (zero counts omitted, the recorder's own rescue count kept)", s.Events, want)
	}
	if s.QBSQueryDepth != nil || s.ECIRescueDistance != nil {
		t.Error("empty histograms present in summary")
	}
}

func TestRecorderECIRescueDistance(t *testing.T) {
	r := NewRecorder(0)
	r.ECIInvalidate(0xA00) // seq 1
	r.ECIInvalidate(0xB00) // seq 2
	r.ECIInvalidate(0xC00) // seq 3
	r.ECIRescue(0xA00)     // distance 3-1 = 2
	r.ECIRescue(0xC00)     // distance 0
	r.ECIRescue(0xD00)     // never invalidated: counted, not histogrammed
	s := r.Summary()
	if s.Events["eci_rescue"] != 3 {
		t.Fatalf("events = %v", s.Events)
	}
	h := s.ECIRescueDistance
	if h == nil || h.Count != 2 || h.Sum != 2 || h.Max != 2 {
		t.Fatalf("rescue distance = %+v", h)
	}
}

// TestRecorderECIRescueDistanceFullMap fills the pending-rescue map to
// its bound, then re-invalidates a tracked line: its distance must
// count from the latest invalidation, and a new line must be turned
// away rather than grow the map.
func TestRecorderECIRescueDistanceFullMap(t *testing.T) {
	r := NewRecorder(0)
	for addr := uint64(0); addr < maxPendingRescues; addr++ {
		r.ECIInvalidate(addr << 6)
	}
	r.ECIInvalidate(maxPendingRescues << 6) // untracked: the map is full
	r.ECIInvalidate(0)                      // re-invalidated: re-stamped
	r.ECIInvalidate(0x1 << 6)               // one more invalidation after it
	if n := len(r.pending); n != maxPendingRescues {
		t.Fatalf("pending holds %d lines, want the bound %d", n, maxPendingRescues)
	}
	r.ECIRescue(0)
	r.ECIRescue(maxPendingRescues << 6)
	h := r.Summary().ECIRescueDistance
	if h == nil || h.Count != 1 || h.Max != 1 {
		t.Fatalf("rescue distance = %+v, want one observation of 1", h)
	}
}

func TestRecorderQBSChains(t *testing.T) {
	r := NewRecorder(0)
	for _, queries := range []int{3, 1, 0, 2, 1} {
		r.QBSSelection(queries)
	}
	h := r.Summary().QBSQueryDepth
	if h == nil || h.Count != 4 {
		t.Fatalf("depth histogram = %+v, want one observation per selection that queried", h)
	}
	if h.Sum != 3+1+2+1 || h.Max != 3 {
		t.Errorf("depth sum, max = %d, %d, want 7, 3", h.Sum, h.Max)
	}
}

// TestNilRecorderIsNoOp calls every method of a nil *Recorder — the
// telemetry-off configuration every uninstrumented run takes — and
// requires each to return without panicking and with zero results.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	dir := t.TempDir()
	args := map[reflect.Type]reflect.Value{
		reflect.TypeOf((*io.Writer)(nil)).Elem(): reflect.ValueOf(io.Writer(&strings.Builder{})),
		reflect.TypeOf(""):                       reflect.ValueOf(filepath.Join(dir, "intervals")),
		reflect.TypeOf(&Decision{}):              reflect.ValueOf(&Decision{}),
	}
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumMethod(); i++ {
		name := v.Type().Method(i).Name
		m := v.Method(i)
		in := make([]reflect.Value, m.Type().NumIn())
		for j := range in {
			arg, ok := args[m.Type().In(j)]
			if !ok {
				arg = reflect.New(m.Type().In(j)).Elem()
			}
			in[j] = arg
		}
		for _, out := range m.Call(in) {
			if !out.IsZero() {
				t.Errorf("nil %s returned %v, want the zero value", name, out)
			}
		}
	}
	if got := args[reflect.TypeOf((*io.Writer)(nil)).Elem()].Interface().(fmt.Stringer).String(); got != "" {
		t.Errorf("nil recorder wrote %q", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("nil recorder created %d files", len(entries))
	}
}

func TestSamplerDeltas(t *testing.T) {
	r := NewRecorder(1000)
	if r.Every() != 1000 {
		t.Fatalf("every = %d", r.Every())
	}
	r.Observe(0, 1000, 2000, 10, 3, 0.5)
	r.Observe(1, 1000, 4000, 50, 0, 0.5)
	r.Observe(0, 2000, 3000, 15, 7, 0.8)
	r.Observe(0, 2000, 3000, 15, 7, 0.8) // duplicate flush: ignored
	got := r.Samples()
	if len(got) != 3 {
		t.Fatalf("%d samples", len(got))
	}
	first, third := got[0], got[2]
	if first.Core != 0 || first.Interval != 0 || first.IPC != 0.5 || first.InclusionVictims != 3 {
		t.Fatalf("first sample = %+v", first)
	}
	if third.Interval != 1 || third.DeltaInstructions != 1000 || third.DeltaCycles != 1000 {
		t.Fatalf("third sample = %+v", third)
	}
	if third.IPC != 1.0 || third.InclusionVictims != 4 || third.LLCMPKI != 5 {
		t.Fatalf("third sample rates = %+v", third)
	}
	if third.VictimsPerMinst != 4000 {
		t.Errorf("victims/Minst = %v", third.VictimsPerMinst)
	}
}

func TestSamplerWriters(t *testing.T) {
	r := NewRecorder(100)
	r.Observe(0, 100, 200, 5, 1, 0.25)
	r.Observe(0, 200, 400, 9, 2, 0.5)

	var csv strings.Builder
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "interval,core,instructions") {
		t.Fatalf("csv = %q", csv.String())
	}

	var jsonl strings.Builder
	if err := r.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	var back Sample
	if err := json.Unmarshal([]byte(strings.Split(jsonl.String(), "\n")[0]), &back); err != nil {
		t.Fatal(err)
	}
	if back.Instructions != 100 || back.InclusionVictims != 1 {
		t.Fatalf("jsonl round-trip = %+v", back)
	}

	prefix := filepath.Join(t.TempDir(), "sub", "run-intervals")
	if err := r.WritePair(prefix); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".csv", ".jsonl"} {
		if b, err := os.ReadFile(prefix + ext); err != nil || len(b) == 0 {
			t.Errorf("%s: %v (%d bytes)", ext, err, len(b))
		}
	}
}

func TestJobDoneAndServeDebug(t *testing.T) {
	beforeJobs, beforeInstr := JobsCompleted(), InstructionsSimulated()
	JobDone(12345)
	if JobsCompleted() != beforeJobs+1 || InstructionsSimulated() != beforeInstr+12345 {
		t.Fatalf("JobDone counters: jobs %d->%d instr %d->%d",
			beforeJobs, JobsCompleted(), beforeInstr, InstructionsSimulated())
	}

	addr, srv, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	vars := get("/debug/vars")
	for _, want := range []string{"tla_jobs_completed", "tla_instructions_simulated", "tla_probe_events", "tla_events_per_second"} {
		if !strings.Contains(vars, want) {
			t.Errorf("/debug/vars missing %s", want)
		}
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ index unexpected: %.80s", body)
	}
}

func TestEventString(t *testing.T) {
	seen := map[string]bool{}
	for e := Event(0); e < numEvents; e++ {
		name := e.String()
		if name == "" || strings.HasPrefix(name, "event(") || seen[name] {
			t.Fatalf("event %d name %q", e, name)
		}
		seen[name] = true
	}
	if got := Event(200).String(); got != fmt.Sprintf("event(%d)", 200) {
		t.Errorf("unknown event = %q", got)
	}
}
