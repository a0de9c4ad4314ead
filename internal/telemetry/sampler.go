package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Sample is one per-core interval snapshot of a run's measurement
// window. Rates (IPC, MPKI, victims-per-Minst) are computed over the
// interval's deltas, not cumulatively, so plotting the column directly
// shows phase behaviour; Instructions is cumulative so rows order
// naturally. The InclusionVictims column is a delta: summed over every
// row of a run it equals the run's aggregate windowed inclusion-victim
// count, because sampling stops for a core exactly when its measurement
// window freezes.
type Sample struct {
	Core              int     `json:"core"`
	Interval          int     `json:"interval"`
	Instructions      uint64  `json:"instructions"`
	DeltaInstructions uint64  `json:"delta_instructions"`
	DeltaCycles       uint64  `json:"delta_cycles"`
	IPC               float64 `json:"ipc"`
	LLCMPKI           float64 `json:"llc_mpki"`
	InclusionVictims  uint64  `json:"inclusion_victims"`
	VictimsPerMinst   float64 `json:"victims_per_minst"`
	LLCOccupancy      float64 `json:"llc_occupancy"`
}

// samplerCursor holds one core's cumulative counters at its previous
// sample, for delta computation.
type samplerCursor struct {
	interval                       int
	instr, cycles, misses, victims uint64
}

// Every returns the per-core sampling interval in instructions, zero
// when the recorder does not sample.
func (r *Recorder) Every() uint64 {
	if r == nil {
		return 0
	}
	return r.every
}

// Observe records one snapshot of a core's cumulative measurement
// counters. The simulator calls it every Every() instructions a core
// commits, and once more when the core's measurement window freezes;
// a repeated call with an unchanged instruction count (the final flush
// landing on an interval boundary) is ignored, so callers need not
// deduplicate.
func (r *Recorder) Observe(core int, instr, cycles, llcMisses, victims uint64, occupancy float64) {
	if r == nil {
		return
	}
	for len(r.cursors) <= core {
		r.cursors = append(r.cursors, samplerCursor{})
	}
	cur := &r.cursors[core]
	if instr == cur.instr {
		return
	}
	dI := instr - cur.instr
	dC := cycles - cur.cycles
	dM := llcMisses - cur.misses
	dV := victims - cur.victims
	sm := Sample{
		Core:              core,
		Interval:          cur.interval,
		Instructions:      instr,
		DeltaInstructions: dI,
		DeltaCycles:       dC,
		InclusionVictims:  dV,
		LLCOccupancy:      occupancy,
	}
	if dC > 0 {
		sm.IPC = float64(dI) / float64(dC)
	}
	sm.LLCMPKI = float64(dM) * 1000 / float64(dI)
	sm.VictimsPerMinst = float64(dV) * 1e6 / float64(dI)
	r.samples = append(r.samples, sm)
	*cur = samplerCursor{interval: cur.interval + 1, instr: instr, cycles: cycles, misses: llcMisses, victims: victims}
	if r.Sink != nil {
		r.Sink(sm)
	}
}

// Samples returns the collected samples in observation order (global
// simulated-time order, cores interleaved).
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	return r.samples
}

// csvHeader matches the field order WriteCSV emits.
const csvHeader = "interval,core,instructions,delta_instructions,delta_cycles,ipc,llc_mpki,inclusion_victims,victims_per_minst,llc_occupancy"

// WriteCSV writes the samples as CSV with a header row. The bytes are
// replay artifacts compared across runs: TestDeterminismAcrossGOMAXPROCS
// (internal/sim) pins them.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w, csvHeader); err != nil {
		return err
	}
	for _, sm := range r.samples {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.4f,%.4f,%d,%.2f,%.4f\n",
			sm.Interval, sm.Core, sm.Instructions, sm.DeltaInstructions, sm.DeltaCycles,
			sm.IPC, sm.LLCMPKI, sm.InclusionVictims, sm.VictimsPerMinst, sm.LLCOccupancy); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL writes the samples as JSON Lines, one Sample per line.
// Like WriteCSV, the output must be byte-identical across replays, and
// TestDeterminismAcrossGOMAXPROCS (internal/sim) pins it.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sm := range r.Samples() {
		if err := enc.Encode(sm); err != nil {
			return err
		}
	}
	return nil
}

// WritePair writes prefix.csv and prefix.jsonl (creating parent
// directories), the time-series artifacts that land next to a run's
// experiment CSVs.
func (r *Recorder) WritePair(prefix string) error {
	if r == nil {
		return nil
	}
	if dir := filepath.Dir(prefix); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	// A fixed-order pair list, not a map: the files are written (and any
	// error surfaces) in the same order every run.
	pairs := []struct {
		ext   string
		write func(io.Writer) error
	}{
		{".csv", r.WriteCSV},
		{".jsonl", r.WriteJSONL},
	}
	for _, p := range pairs {
		f, err := os.Create(prefix + p.ext)
		if err != nil {
			return err
		}
		if err := p.write(f); err != nil {
			f.Close()
			return fmt.Errorf("telemetry: writing %s: %w", prefix+p.ext, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
