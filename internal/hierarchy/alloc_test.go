package hierarchy

// The allocation gate. Experiments run hundreds of millions of
// accesses, so a warm hierarchy must make no heap allocation at all
// (DESIGN.md §10). The gate drives every lockstep machine with the
// lockstep's own streams and counts allocations exactly over a window
// as long as the warm-up.
// The exact count is what catches a slice or map that grows a little
// at a time, which a mean per access truncated to an integer reads as
// zero. Append at most doubles a slice's capacity, so state that grows
// once per event ends a warm-up of W accesses with room for at most
// about as many events again, and W more accesses with as many events
// grow it once more.

import (
	"testing"

	"tlacache/internal/statecheck"
	"tlacache/internal/telemetry"
)

// bareMachine drives a Hierarchy alone, the way the simulator's run
// loop does: a fetch tries the ifetch memo first, and every access
// carries a clock that advances a cycle per access, so a banked LLC
// queues. Its methods never fail; they return an error only to be an
// accessor, so a stream run on it needs no error check.
type bareMachine struct {
	h   *Hierarchy
	now uint64
}

func (m *bareMachine) access(core int, kind AccessKind, addr uint64) error {
	m.now++
	m.h.AccessAt(core, kind, addr, m.now)
	return nil
}

func (m *bareMachine) fetch(core int, pc uint64) error {
	m.now++
	if !m.h.IFetchMemoHit(core, pc) {
		m.h.AccessAt(core, IFetch, pc, m.now)
	}
	return nil
}

// allocWindow is each stream's warm-up, and then the window after it
// in which a machine may not allocate. The warm-up also covers a traced
// ECI machine's recorder learning the stream's lines: its rescue map
// grows with each new line ECI invalidates, which a stream's footprint
// bounds, and stops growing within about 15,000 accesses.
const allocWindow = 20_000

// TestWarmMachinesAllocateNothing warms each lockstep machine for
// allocWindow accesses of each lockstep stream and then requires
// exactly zero heap allocations over the next allocWindow. Each machine
// runs twice: with no recorder, as runs without telemetry do, and with
// a recorder whose Decisions discards, which also builds every LLC
// victim decision record. The subtests run serially, because the
// malloc count is process-wide.
func TestWarmMachinesAllocateNothing(t *testing.T) {
	for i, tc := range lockstepConfigs() {
		seed := 0x9E3779B97F4A7C15 ^ uint64(i+1)
		t.Run(tc.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				name := "nil-recorder"
				if traced {
					name = "traced"
				}
				t.Run(name, func(t *testing.T) {
					for _, s := range []struct {
						name string
						ops  opStream
					}{{"random", randomOps(tc.cfg, seed)}, {"fetch", fetchOps(tc.cfg, seed)}} {
						m := &bareMachine{h: MustNew(tc.cfg)}
						if traced {
							rec := telemetry.NewRecorder(0)
							rec.Decisions = discardDecisions{}
							m.h.SetTelemetry(rec)
						}
						s.ops.run(m, allocWindow)
						if c := statecheck.Allocs(func() { s.ops.run(m, allocWindow) }); c.Mallocs != 0 {
							t.Errorf("%s stream: %v\nin %d accesses after a warm-up of as many, want 0",
								s.name, c, allocWindow)
						}
					}
				})
			}
		})
	}
}
