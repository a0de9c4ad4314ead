package telemetry

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// This file is the decision-level half of the telemetry layer: where a
// Recorder's summary reports *that* temporal-locality events happened,
// a DecisionTracer reports *why* — the full candidate set the LLC
// weighed at each victim choice, the way it picked, and what the
// eviction cost (inclusion victims). The offline analyzer
// (cmd/tlatrace) replays these records to score a policy's decisions
// and to ask counterfactuals such as "what would QBS have evicted here
// instead?".

// NoWay is the way index recorded when a decision has no alternative
// way to report (e.g. QBSWay when every candidate was core-resident).
const NoWay = -1

// DecisionCandidate is one way of the set at the moment of an LLC
// victim choice. Rank is the replacement policy's eviction preference
// for the way (larger = closer to eviction: LRU stack distance from
// MRU, NRU reference-bit complement, SRRIP RRPV). Presence is the LLC
// directory mask.
type DecisionCandidate struct {
	Way      int    `json:"way"`
	Addr     uint64 `json:"addr,omitempty"`
	Valid    bool   `json:"valid,omitempty"`
	Dirty    bool   `json:"dirty,omitempty"`
	Rank     uint8  `json:"rank"`
	Presence uint64 `json:"presence,omitempty"`
}

// Decision is one LLC victim choice: the incoming line, every candidate
// way as the policy saw them (pre-eviction), the way actually chosen,
// the way a read-only QBS emulation would have suggested (ChosenWay
// when they agree, NoWay when QBS found every candidate core-resident),
// and the number of cores that lost lines to the eviction's
// back-invalidation (0 for cold fills and non-inclusive modes).
type Decision struct {
	Seq              uint64              `json:"seq"`
	Core             int                 `json:"core"`
	Set              int                 `json:"set"`
	NewAddr          uint64              `json:"new_addr"`
	ChosenWay        int                 `json:"chosen_way"`
	QBSWay           int                 `json:"qbs_way"`
	InclusionVictims int                 `json:"inclusion_victims"`
	Candidates       []DecisionCandidate `json:"candidates"`
}

// DecisionTracer receives one record per LLC victim choice through a
// Recorder's Decisions field. Like the recorder, implementations are
// called synchronously from the single simulation goroutine of one run;
// a tracer must not be shared between concurrent runs. The pointed-to
// Decision and its Candidates slice are scratch storage the hierarchy
// reuses across calls — implementations that retain records must
// deep-copy them.
type DecisionTracer interface {
	Decision(d *Decision)
}

// DecisionMeta is the trace-level header of a decision trace: the LLC
// geometry and policy the records were captured under, which the
// analyzer needs to interpret set indices and ranks.
type DecisionMeta struct {
	Sets   int    `json:"sets"`
	Assoc  int    `json:"assoc"`
	Policy string `json:"policy"`
	Cores  int    `json:"cores"`
}

// The binary decision-trace format mirrors the TLAT1 instruction-trace
// container: magic, one JSON meta line, then varint-packed records
// until EOF. Addresses are delta-encoded (the record's NewAddr against
// the previous record's, each candidate's against the record's), which
// keeps the dominant same-set same-region traffic to a few bytes per
// candidate. Layout:
//
//	magic   "TLAD1\n"
//	meta    one JSON line (DecisionMeta)
//	records repeated until EOF:
//	    core     1 byte
//	    set      unsigned varint
//	    chosen   1 byte
//	    qbs      1 byte (0xFF encodes NoWay)
//	    victims  unsigned varint
//	    newΔ     signed varint, NewAddr delta from the previous record
//	    ncand    1 byte
//	    candidates repeated ncand times (way = position):
//	        flags    1 byte (bit0 valid, bit1 dirty)
//	        rank     1 byte
//	        addrΔ    signed varint vs NewAddr — valid candidates only
//	        presence unsigned varint      — valid candidates only
const decisionMagic = "TLAD1\n"

const (
	decFlagValid uint8 = 1 << iota
	decFlagDirty
)

const noWayByte = 0xFF

// DecisionWriter streams decisions to the binary TLAD1 format. It
// implements DecisionTracer directly; because the interface returns no
// error, write failures latch and surface from Flush.
type DecisionWriter struct {
	w        *bufio.Writer
	lastAddr uint64
	count    uint64
	err      error
	buf      []byte
}

// NewDecisionWriter writes the header and returns a streaming writer.
// Call Flush when the run is done to surface any latched write error.
func NewDecisionWriter(w io.Writer, meta DecisionMeta) (*DecisionWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(decisionMagic); err != nil {
		return nil, fmt.Errorf("telemetry: decision trace header: %w", err)
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("telemetry: decision trace meta: %w", err)
	}
	if _, err := bw.Write(append(mj, '\n')); err != nil {
		return nil, fmt.Errorf("telemetry: decision trace meta: %w", err)
	}
	// Scratch sized for the worst case of a 16-way record so steady-state
	// appends never grow it.
	return &DecisionWriter{w: bw, buf: make([]byte, 0, 512)}, nil
}

// Decision implements DecisionTracer. The scratch buffer is sized for
// the worst-case record at construction, so the appends below reuse it
// in the steady state; tracer-attached runs opt out of the zero-alloc
// contract regardless (like Recorder-attached ones). TLAD1 bytes are
// replay-compared across runs: TestDeterminismAcrossGOMAXPROCS
// (internal/sim) pins them.
func (dw *DecisionWriter) Decision(d *Decision) {
	if dw.err != nil {
		return
	}
	b := dw.buf[:0]
	b = append(b, byte(d.Core))
	b = binary.AppendUvarint(b, uint64(d.Set))
	q := byte(noWayByte)
	if d.QBSWay != NoWay {
		q = byte(d.QBSWay)
	}
	b = append(b, byte(d.ChosenWay), q)
	b = binary.AppendUvarint(b, uint64(d.InclusionVictims))
	b = binary.AppendVarint(b, int64(d.NewAddr)-int64(dw.lastAddr))
	b = append(b, byte(len(d.Candidates)))
	for i := range d.Candidates {
		c := &d.Candidates[i]
		var flags uint8
		if c.Valid {
			flags |= decFlagValid
		}
		if c.Dirty {
			flags |= decFlagDirty
		}
		b = append(b, flags, c.Rank)
		if c.Valid {
			b = binary.AppendVarint(b, int64(c.Addr)-int64(d.NewAddr))
			b = binary.AppendUvarint(b, c.Presence)
		}
	}
	if _, err := dw.w.Write(b); err != nil {
		dw.err = fmt.Errorf("telemetry: decision trace write: %w", err)
	}
	dw.buf = b[:0]
	dw.lastAddr = d.NewAddr
	dw.count++
}

// Count returns the number of records written.
func (dw *DecisionWriter) Count() uint64 { return dw.count }

// Flush flushes buffered records and returns the first error the stream
// hit, if any.
func (dw *DecisionWriter) Flush() error {
	if dw.err != nil {
		return dw.err
	}
	if err := dw.w.Flush(); err != nil {
		return fmt.Errorf("telemetry: decision trace flush: %w", err)
	}
	return nil
}

// DecisionJSONLWriter streams decisions as one JSON object per line —
// the human-greppable sibling of the binary format. The first line is
// the DecisionMeta header object, tagged "meta":true.
type DecisionJSONLWriter struct {
	w     *bufio.Writer
	count uint64
	err   error
}

// NewDecisionJSONLWriter writes the meta header line and returns the
// writer. Call Flush when done.
func NewDecisionJSONLWriter(w io.Writer, meta DecisionMeta) (*DecisionJSONLWriter, error) {
	bw := bufio.NewWriter(w)
	hdr := struct {
		Meta bool `json:"meta"`
		DecisionMeta
	}{Meta: true, DecisionMeta: meta}
	hj, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: decision jsonl meta: %w", err)
	}
	if _, err := bw.Write(append(hj, '\n')); err != nil {
		return nil, fmt.Errorf("telemetry: decision jsonl meta: %w", err)
	}
	return &DecisionJSONLWriter{w: bw}, nil
}

// Decision implements DecisionTracer. The JSONL stream must be
// byte-identical across replays: TestDeterminismAcrossGOMAXPROCS
// (internal/sim) pins it.
func (jw *DecisionJSONLWriter) Decision(d *Decision) {
	if jw.err != nil {
		return
	}
	data, err := json.Marshal(d)
	if err != nil {
		jw.err = fmt.Errorf("telemetry: decision jsonl encode: %w", err)
		return
	}
	if _, err := jw.w.Write(append(data, '\n')); err != nil {
		jw.err = fmt.Errorf("telemetry: decision jsonl write: %w", err)
		return
	}
	jw.count++
}

// Count returns the number of records written.
func (jw *DecisionJSONLWriter) Count() uint64 { return jw.count }

// Flush flushes buffered lines and returns any latched error.
func (jw *DecisionJSONLWriter) Flush() error {
	if jw.err != nil {
		return jw.err
	}
	if err := jw.w.Flush(); err != nil {
		return fmt.Errorf("telemetry: decision jsonl flush: %w", err)
	}
	return nil
}

// DecisionLog is an in-memory DecisionTracer that deep-copies every
// record, for tests and the in-process counterfactual engine.
type DecisionLog struct {
	Records []Decision
}

// Decision implements DecisionTracer.
func (l *DecisionLog) Decision(d *Decision) {
	cp := *d
	cp.Candidates = append([]DecisionCandidate(nil), d.Candidates...)
	l.Records = append(l.Records, cp)
}

// DecisionReader decodes a binary TLAD1 decision trace.
type DecisionReader struct {
	r        *bufio.Reader
	meta     DecisionMeta
	lastAddr uint64
}

// NewDecisionReader validates the header, decodes the meta line, and
// returns a streaming reader.
func NewDecisionReader(r io.Reader) (*DecisionReader, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, len(decisionMagic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("telemetry: decision trace header: %w", err)
	}
	if string(hdr) != decisionMagic {
		return nil, errors.New("telemetry: bad magic (not a TLAD1 decision trace)")
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("telemetry: decision trace meta: %w", err)
	}
	var meta DecisionMeta
	if err := json.Unmarshal(line, &meta); err != nil {
		return nil, fmt.Errorf("telemetry: decision trace meta: %w", err)
	}
	if meta.Assoc <= 0 || meta.Assoc > 256 || meta.Sets <= 0 {
		return nil, fmt.Errorf("telemetry: decision trace meta geometry %d sets x %d ways out of range", meta.Sets, meta.Assoc)
	}
	return &DecisionReader{r: br, meta: meta}, nil
}

// Meta returns the trace header.
func (dr *DecisionReader) Meta() DecisionMeta { return dr.meta }

// Read decodes the next record into d, reusing d.Candidates when its
// capacity allows. It returns io.EOF at a clean end of stream and a
// wrapped error on corruption.
func (dr *DecisionReader) Read(d *Decision) error {
	core, err := dr.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("telemetry: decision trace core: %w", err)
	}
	set, err := binary.ReadUvarint(dr.r)
	if err != nil {
		return fmt.Errorf("telemetry: decision trace set: %w", err)
	}
	if int(set) >= dr.meta.Sets {
		return fmt.Errorf("telemetry: decision trace set %d out of range (%d sets)", set, dr.meta.Sets)
	}
	chosen, err := dr.r.ReadByte()
	if err != nil {
		return fmt.Errorf("telemetry: decision trace chosen way: %w", err)
	}
	qbs, err := dr.r.ReadByte()
	if err != nil {
		return fmt.Errorf("telemetry: decision trace qbs way: %w", err)
	}
	victims, err := binary.ReadUvarint(dr.r)
	if err != nil {
		return fmt.Errorf("telemetry: decision trace victims: %w", err)
	}
	delta, err := binary.ReadVarint(dr.r)
	if err != nil {
		return fmt.Errorf("telemetry: decision trace addr delta: %w", err)
	}
	ncand, err := dr.r.ReadByte()
	if err != nil {
		return fmt.Errorf("telemetry: decision trace candidate count: %w", err)
	}
	if int(ncand) > dr.meta.Assoc {
		return fmt.Errorf("telemetry: decision trace %d candidates exceed assoc %d", ncand, dr.meta.Assoc)
	}
	dr.lastAddr = uint64(int64(dr.lastAddr) + delta)
	d.Seq++
	d.Core = int(core)
	d.Set = int(set)
	d.NewAddr = dr.lastAddr
	d.ChosenWay = int(chosen)
	d.QBSWay = NoWay
	if qbs != noWayByte {
		d.QBSWay = int(qbs)
	}
	d.InclusionVictims = int(victims)
	if cap(d.Candidates) < int(ncand) {
		d.Candidates = make([]DecisionCandidate, ncand)
	}
	d.Candidates = d.Candidates[:ncand]
	for i := range d.Candidates {
		flags, err := dr.r.ReadByte()
		if err != nil {
			return fmt.Errorf("telemetry: decision trace candidate flags: %w", err)
		}
		rank, err := dr.r.ReadByte()
		if err != nil {
			return fmt.Errorf("telemetry: decision trace candidate rank: %w", err)
		}
		c := &d.Candidates[i]
		*c = DecisionCandidate{Way: i, Valid: flags&decFlagValid != 0, Dirty: flags&decFlagDirty != 0, Rank: rank}
		if c.Valid {
			ad, err := binary.ReadVarint(dr.r)
			if err != nil {
				return fmt.Errorf("telemetry: decision trace candidate addr: %w", err)
			}
			c.Addr = uint64(int64(d.NewAddr) + ad)
			if c.Presence, err = binary.ReadUvarint(dr.r); err != nil {
				return fmt.Errorf("telemetry: decision trace candidate presence: %w", err)
			}
		}
	}
	return nil
}

// ReadAll decodes every remaining record, assigning sequence numbers in
// stream order starting from 1.
func (dr *DecisionReader) ReadAll() ([]Decision, error) {
	var out []Decision
	var d Decision
	for {
		// Fresh candidate storage per record: Read reuses the slice.
		d.Candidates = nil
		err := dr.Read(&d)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, d)
	}
}
