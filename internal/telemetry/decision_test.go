package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
)

func sampleDecisions() []Decision {
	return []Decision{
		{
			Seq: 1, Core: 0, Set: 3, NewAddr: 0x1000, ChosenWay: 2, QBSWay: 2,
			InclusionVictims: 0,
			Candidates: []DecisionCandidate{
				{Way: 0, Addr: 0x2000, Valid: true, Dirty: false, Rank: 1, Presence: 1},
				{Way: 1, Valid: false, Rank: 3},
				{Way: 2, Addr: 0x8000_0000_0000_1000, Valid: true, Dirty: true, Rank: 3, Presence: 3},
			},
		},
		{
			Seq: 2, Core: 1, Set: 0, NewAddr: 0x0940, ChosenWay: 0, QBSWay: NoWay,
			InclusionVictims: 2,
			Candidates: []DecisionCandidate{
				{Way: 0, Addr: 0x0040, Valid: true, Rank: 0, Presence: 2},
				{Way: 1, Addr: 0x4040, Valid: true, Rank: 2, Presence: 0},
				{Way: 2, Valid: false, Rank: 0xFF},
			},
		},
	}
}

// The binary format must round-trip every field, including negative
// address deltas, the NoWay sentinel, and invalid candidates.
func TestDecisionBinaryRoundTrip(t *testing.T) {
	meta := DecisionMeta{Sets: 16, Assoc: 3, Policy: "NRU", Cores: 2}
	var buf bytes.Buffer
	w, err := NewDecisionWriter(&buf, meta)
	if err != nil {
		t.Fatalf("NewDecisionWriter: %v", err)
	}
	in := sampleDecisions()
	for i := range in {
		w.Decision(&in[i])
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != uint64(len(in)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(in))
	}

	r, err := NewDecisionReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecisionReader: %v", err)
	}
	if r.Meta() != meta {
		t.Errorf("meta = %+v, want %+v", r.Meta(), meta)
	}
	out, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestDecisionReaderRejectsCorruption(t *testing.T) {
	meta := DecisionMeta{Sets: 4, Assoc: 2, Policy: "LRU", Cores: 1}
	for name, mangle := range map[string]func([]byte) []byte{
		"bad-magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-2] },
		"bad-meta":     func(b []byte) []byte { return append([]byte("TLAD1\nnot json\n"), b[20:]...) },
		"set-range":    nil, // constructed below
		"cand-exceeds": nil,
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewDecisionWriter(&buf, meta)
			if err != nil {
				t.Fatal(err)
			}
			d := Decision{Set: 1, ChosenWay: 0, QBSWay: 0, NewAddr: 0x40,
				Candidates: []DecisionCandidate{{Way: 0, Valid: true, Addr: 0x80, Rank: 1}, {Way: 1}}}
			switch name {
			case "set-range":
				d.Set = 7 // >= meta.Sets
			case "cand-exceeds":
				d.Candidates = append(d.Candidates, DecisionCandidate{Way: 2})
			}
			w.Decision(&d)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			if mangle != nil {
				raw = mangle(raw)
			}
			r, err := NewDecisionReader(bytes.NewReader(raw))
			if err != nil {
				return // header-level rejection is fine
			}
			if _, err := r.ReadAll(); err == nil {
				t.Errorf("%s: corrupted stream decoded cleanly", name)
			}
		})
	}
}

// A latched write error must surface from Flush, not vanish.
func TestDecisionWriterLatchesError(t *testing.T) {
	meta := DecisionMeta{Sets: 4, Assoc: 1, Policy: "LRU", Cores: 1}
	fw := &failAfterWriter{limit: len(decisionMagic) + 64}
	w, err := NewDecisionWriter(fw, meta)
	if err != nil {
		t.Fatal(err)
	}
	d := Decision{Candidates: []DecisionCandidate{{Way: 0}}}
	for i := 0; i < 10_000; i++ {
		w.Decision(&d)
	}
	if err := w.Flush(); err == nil {
		t.Error("Flush returned nil after the underlying writer failed")
	}
}

type failAfterWriter struct {
	n, limit int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > f.limit {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// The JSONL form carries a meta header line and one decision per line.
func TestDecisionJSONL(t *testing.T) {
	meta := DecisionMeta{Sets: 16, Assoc: 3, Policy: "SRRIP", Cores: 2}
	var buf bytes.Buffer
	w, err := NewDecisionJSONLWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	in := sampleDecisions()
	for i := range in {
		w.Decision(&in[i])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	if !sc.Scan() {
		t.Fatal("missing meta line")
	}
	var hdr struct {
		Meta bool `json:"meta"`
		DecisionMeta
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || !hdr.Meta || hdr.DecisionMeta != meta {
		t.Fatalf("meta line %q: err=%v parsed=%+v", sc.Text(), err, hdr)
	}
	var got []Decision
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("record line %q: %v", sc.Text(), err)
		}
		got = append(got, d)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("JSONL round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
	if !strings.Contains(buf.String(), `"qbs_way":-1`) {
		t.Error("JSONL does not spell out the NoWay sentinel")
	}
}

// DecisionLog must deep-copy records: the hierarchy reuses the scratch
// Decision (and its Candidates backing array) across calls.
func TestDecisionLogDeepCopies(t *testing.T) {
	var l DecisionLog
	scratch := Decision{Seq: 1, Set: 2, ChosenWay: 1,
		Candidates: []DecisionCandidate{{Way: 0, Addr: 0x40, Valid: true}}}
	l.Decision(&scratch)
	scratch.Seq, scratch.Set = 2, 9
	scratch.Candidates[0].Addr = 0xdead
	l.Decision(&scratch)
	if len(l.Records) != 2 {
		t.Fatalf("logged %d records, want 2", len(l.Records))
	}
	if l.Records[0].Set != 2 || l.Records[0].Candidates[0].Addr != 0x40 {
		t.Errorf("first record mutated by scratch reuse: %+v", l.Records[0])
	}
	if l.Records[1].Set != 9 || l.Records[1].Candidates[0].Addr != 0xdead {
		t.Errorf("second record wrong: %+v", l.Records[1])
	}
}
