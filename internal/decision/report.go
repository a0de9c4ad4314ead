// Package decision analyzes LLC eviction decision traces (the records a
// telemetry.DecisionTracer captures) offline: per-policy decision
// quality reports and the QBS counterfactual — what would have happened
// had the LLC evicted the way a temporal-locality-aware policy suggests
// instead of the way the replacement policy picked. It is the analysis
// engine behind cmd/tlatrace.
package decision

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"tlacache/internal/telemetry"
)

// RankCount is one bucket of the rank-of-chosen-way histogram.
type RankCount struct {
	Rank  uint8  `json:"rank"`
	Count uint64 `json:"count"`
}

// CoreStats attributes decisions to the core whose demand (or L2
// eviction, in exclusive mode) triggered them.
type CoreStats struct {
	Decisions        uint64 `json:"decisions"`
	InclusionVictims uint64 `json:"inclusion_victims"`
}

// Report summarizes one decision trace. All counts are exact; the
// derived rates come from Render so the struct stays JSON-stable.
type Report struct {
	Meta      telemetry.DecisionMeta `json:"meta"`
	Decisions uint64                 `json:"decisions"`
	// ColdFills chose an invalid way (no eviction); Evictions displaced
	// a valid line, DirtyEvictions one that required a writeback.
	ColdFills      uint64 `json:"cold_fills"`
	Evictions      uint64 `json:"evictions"`
	DirtyEvictions uint64 `json:"dirty_evictions"`
	// InclusionVictims counts core-cache lines lost to back-invalidation
	// across all decisions; EvictionsWithVictims counts the decisions
	// responsible. TrackedVictims counts evictions whose victim the
	// directory still attributed to at least one core.
	InclusionVictims     uint64 `json:"inclusion_victims"`
	EvictionsWithVictims uint64 `json:"evictions_with_victims"`
	TrackedVictims       uint64 `json:"tracked_victims"`
	// The QBS counterfactual over evictions: Agree — the emulation
	// endorses the chosen way; Changed — it would have evicted another
	// (recorded) way; NoAlternative — every candidate was core-resident,
	// so real QBS would have exhausted its query budget.
	QBSAgree         uint64 `json:"qbs_agree"`
	QBSChanged       uint64 `json:"qbs_changed"`
	QBSNoAlternative uint64 `json:"qbs_no_alternative"`
	// PredictedVictimsAvoided sums the inclusion victims of Changed
	// decisions — the back-invalidations a QBS choice would have dodged.
	// PredictedDirtyAvoided counts Changed decisions that traded a dirty
	// victim for a clean suggested one.
	PredictedVictimsAvoided uint64 `json:"predicted_victims_avoided"`
	PredictedDirtyAvoided   uint64 `json:"predicted_dirty_avoided"`
	// RankChosen histograms the replacement-policy rank of the chosen
	// way (larger = closer to eviction). A healthy policy evicts from
	// high ranks.
	RankChosen []RankCount `json:"rank_chosen"`
	// PerCore is indexed by core ID (length Meta.Cores).
	PerCore []CoreStats `json:"per_core"`

	ranks [256]uint64
}

// NewReport returns an empty report for a trace with the given header.
func NewReport(meta telemetry.DecisionMeta) *Report {
	return &Report{Meta: meta, PerCore: make([]CoreStats, meta.Cores)}
}

// Add accumulates one decision record.
func (r *Report) Add(d *telemetry.Decision) error {
	if d.ChosenWay < 0 || d.ChosenWay >= len(d.Candidates) {
		return fmt.Errorf("decision: record %d chose way %d of %d candidates",
			d.Seq, d.ChosenWay, len(d.Candidates))
	}
	if d.Core < 0 || d.Core >= len(r.PerCore) {
		return fmt.Errorf("decision: record %d from core %d of %d", d.Seq, d.Core, len(r.PerCore))
	}
	r.Decisions++
	r.PerCore[d.Core].Decisions++
	r.PerCore[d.Core].InclusionVictims += uint64(d.InclusionVictims)
	r.InclusionVictims += uint64(d.InclusionVictims)
	c := &d.Candidates[d.ChosenWay]
	r.ranks[c.Rank]++
	if !c.Valid {
		r.ColdFills++
		return nil
	}
	r.Evictions++
	if c.Dirty {
		r.DirtyEvictions++
	}
	if c.Presence != 0 {
		r.TrackedVictims++
	}
	if d.InclusionVictims > 0 {
		r.EvictionsWithVictims++
	}
	switch {
	case d.QBSWay == d.ChosenWay:
		r.QBSAgree++
	case d.QBSWay == telemetry.NoWay:
		r.QBSNoAlternative++
	default:
		if d.QBSWay < 0 || d.QBSWay >= len(d.Candidates) {
			return fmt.Errorf("decision: record %d suggests way %d of %d candidates",
				d.Seq, d.QBSWay, len(d.Candidates))
		}
		r.QBSChanged++
		r.PredictedVictimsAvoided += uint64(d.InclusionVictims)
		if c.Dirty && !d.Candidates[d.QBSWay].Dirty {
			r.PredictedDirtyAvoided++
		}
	}
	return nil
}

// Finish freezes the accumulated histogram into the exported form.
// Call it once, after the last Add.
func (r *Report) Finish() {
	r.RankChosen = r.RankChosen[:0]
	for rank := 0; rank < 256; rank++ {
		if n := r.ranks[rank]; n > 0 {
			r.RankChosen = append(r.RankChosen, RankCount{Rank: uint8(rank), Count: n})
		}
	}
}

// AnalyzeRecords builds a report from in-memory records (e.g. a
// telemetry.DecisionLog captured by the counterfactual engine).
func AnalyzeRecords(meta telemetry.DecisionMeta, recs []telemetry.Decision) (*Report, error) {
	r := NewReport(meta)
	for i := range recs {
		if err := r.Add(&recs[i]); err != nil {
			return nil, err
		}
	}
	r.Finish()
	return r, nil
}

// Analyze streams a trace from r, which may be either the binary TLAD1
// format or its JSONL sibling (sniffed from the first bytes).
func Analyze(rd io.Reader) (*Report, error) {
	br := bufio.NewReader(rd)
	head, err := br.Peek(6)
	if err != nil {
		return nil, fmt.Errorf("decision: trace too short: %w", err)
	}
	if bytes.Equal(head, []byte("TLAD1\n")) {
		return analyzeBinary(br)
	}
	return analyzeJSONL(br)
}

// AnalyzeFile opens and analyzes one trace file of either format.
func AnalyzeFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := Analyze(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func analyzeBinary(br *bufio.Reader) (*Report, error) {
	dr, err := telemetry.NewDecisionReader(br)
	if err != nil {
		return nil, err
	}
	rep := NewReport(dr.Meta())
	var d telemetry.Decision
	for {
		err := dr.Read(&d)
		if err == io.EOF {
			rep.Finish()
			return rep, nil
		}
		if err != nil {
			return nil, err
		}
		if err := rep.Add(&d); err != nil {
			return nil, err
		}
	}
}

func analyzeJSONL(br *bufio.Reader) (*Report, error) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("decision: empty JSONL trace")
	}
	var hdr struct {
		Meta bool `json:"meta"`
		telemetry.DecisionMeta
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || !hdr.Meta {
		return nil, fmt.Errorf("decision: JSONL trace lacks the meta header line (err=%v)", err)
	}
	rep := NewReport(hdr.DecisionMeta)
	line := 1
	for sc.Scan() {
		line++
		var d telemetry.Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("decision: JSONL line %d: %w", line, err)
		}
		if err := rep.Add(&d); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.Finish()
	return rep, nil
}

// pctOf renders a/b as a fixed-width percentage, "-" when b is zero —
// every Render output is byte-deterministic for identical reports.
func pctOf(a, b uint64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(a)/float64(b))
}

// Render writes the fixed-format text report. Output carries no
// timestamps or environment detail: identical traces render to
// identical bytes, which TestAnalyzeViewsAgree pins.
func (r *Report) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d sets x %d ways, policy %s, %d cores\n",
		r.Meta.Sets, r.Meta.Assoc, r.Meta.Policy, r.Meta.Cores)
	fmt.Fprintf(&b, "decisions               %d\n", r.Decisions)
	fmt.Fprintf(&b, "  cold fills            %d (%s)\n", r.ColdFills, pctOf(r.ColdFills, r.Decisions))
	fmt.Fprintf(&b, "  evictions             %d (%s)\n", r.Evictions, pctOf(r.Evictions, r.Decisions))
	fmt.Fprintf(&b, "  dirty evictions       %d (%s of evictions)\n", r.DirtyEvictions, pctOf(r.DirtyEvictions, r.Evictions))
	fmt.Fprintf(&b, "  directory-tracked     %d (%s of evictions)\n", r.TrackedVictims, pctOf(r.TrackedVictims, r.Evictions))
	fmt.Fprintf(&b, "inclusion victims       %d (from %d evictions, %s)\n",
		r.InclusionVictims, r.EvictionsWithVictims, pctOf(r.EvictionsWithVictims, r.Evictions))
	fmt.Fprintf(&b, "QBS counterfactual (per eviction)\n")
	fmt.Fprintf(&b, "  agree                 %d (%s)\n", r.QBSAgree, pctOf(r.QBSAgree, r.Evictions))
	fmt.Fprintf(&b, "  would change          %d (%s)\n", r.QBSChanged, pctOf(r.QBSChanged, r.Evictions))
	fmt.Fprintf(&b, "  no alternative        %d (%s)\n", r.QBSNoAlternative, pctOf(r.QBSNoAlternative, r.Evictions))
	fmt.Fprintf(&b, "  victims avoided       %d (%s of inclusion victims)\n",
		r.PredictedVictimsAvoided, pctOf(r.PredictedVictimsAvoided, r.InclusionVictims))
	fmt.Fprintf(&b, "  dirty swaps avoided   %d\n", r.PredictedDirtyAvoided)
	fmt.Fprintf(&b, "rank of chosen way (larger = closer to eviction)\n")
	for _, rc := range r.RankChosen {
		fmt.Fprintf(&b, "  rank %-7d %10d (%s)\n", rc.Rank, rc.Count, pctOf(rc.Count, r.Decisions))
	}
	fmt.Fprintf(&b, "per core\n")
	for core, cs := range r.PerCore {
		fmt.Fprintf(&b, "  core %-2d  decisions %10d  inclusion victims %10d\n",
			core, cs.Decisions, cs.InclusionVictims)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
