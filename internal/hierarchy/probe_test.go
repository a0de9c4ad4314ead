package hierarchy

import (
	"testing"

	"tlacache/internal/replacement"
	"tlacache/internal/telemetry"
)

// miniProbeConfig is a deliberately tiny machine (4KB LLC) so a few
// thousand accesses produce evictions, back-invalidations, and every
// TLA event.
func miniProbeConfig(tla TLAPolicy) Config {
	return Config{
		Cores: 2, LineSize: 64,
		L1ISize: 1 << 10, L1IAssoc: 2,
		L1DSize: 1 << 10, L1DAssoc: 2,
		L2Size: 2 << 10, L2Assoc: 2,
		LLCSize: 4 << 10, LLCAssoc: 4,
		L1Policy: replacement.LRU, L2Policy: replacement.LRU, LLCPolicy: replacement.NRU,
		Inclusion:  Inclusive,
		TLA:        tla,
		TLHSources: L1Caches, TLHPerMille: 1000,
		QBSProbe: AllCaches,
		Latency:  DefaultLatencies(),
	}
}

// driveProbes runs a reuse-heavy access pattern whose working set
// exceeds the LLC, from both cores.
func driveProbes(h *Hierarchy) {
	for i := 0; i < 6000; i++ {
		core := i & 1
		h.Access(core, IFetch, uint64(i%61)*64)
		h.Access(core, Load, uint64(i%striding)*64)
		if i%7 == 0 {
			h.Access(core, Store, uint64(i%striding)*64)
		}
	}
}

const striding = 257 // lines in the data working set: 257*64B ≈ 4x the LLC

// TestProbeMatchesTrafficCounters asserts, for each policy, that the
// event counts a recorder reports once the run finishes are the
// hierarchy's own aggregate counters, event by event — the property
// the interval time series and manifest summaries rely on — and that
// each policy's signature events occur.
func TestProbeMatchesTrafficCounters(t *testing.T) {
	for _, tla := range []TLAPolicy{TLANone, TLATLH, TLAECI, TLAQBS} {
		t.Run(tla.String(), func(t *testing.T) {
			h := MustNew(miniProbeConfig(tla))
			rec := telemetry.NewRecorder(0)
			h.SetTelemetry(rec)
			driveProbes(h)
			rec.Finish(h.EventCounts())
			got := rec.Summary().Events

			var victims, l2Victims uint64
			for _, cs := range h.Cores {
				victims += cs.InclusionVictims
				l2Victims += cs.L2InclusionVictims
			}
			for _, ev := range []struct {
				e       telemetry.Event
				counter uint64
			}{
				{telemetry.EvInclusionVictim, victims},
				{telemetry.EvL2InclusionVictim, l2Victims},
				{telemetry.EvBackInvalidate, h.Traffic.BackInvalidates},
				{telemetry.EvECIInvalidate, h.Traffic.ECISent},
				{telemetry.EvQBSQuery, h.Traffic.QBSQueries},
				{telemetry.EvQBSSave, h.Traffic.QBSSaves},
				{telemetry.EvTLHHint, h.Traffic.TLHSent},
			} {
				if got[ev.e.String()] != ev.counter {
					t.Errorf("%s events = %d, counter = %d", ev.e, got[ev.e.String()], ev.counter)
				}
			}
			signature := map[TLAPolicy]telemetry.Event{
				TLANone: telemetry.EvInclusionVictim,
				TLATLH:  telemetry.EvTLHHint,
				TLAECI:  telemetry.EvECIInvalidate,
				TLAQBS:  telemetry.EvQBSSave,
			}[tla]
			if got[telemetry.EvBackInvalidate.String()] == 0 || got[signature.String()] == 0 {
				t.Errorf("no %s or %s events: %v", telemetry.EvBackInvalidate, signature, got)
			}
			// The reuse pattern re-references early-invalidated lines
			// while they are still LLC-resident: rescues must occur, and
			// Finish must keep the count only the recorder observes.
			if tla == TLAECI && got[telemetry.EvECIRescue.String()] == 0 {
				t.Error("no ECI rescues observed")
			}
		})
	}
}

// TestProbeL2InclusionVictims exercises the inclusive-L2 event, which
// only a machine with inclusive private L2s produces.
func TestProbeL2InclusionVictims(t *testing.T) {
	cfg := miniProbeConfig(TLANone)
	cfg.L2Inclusive = true
	h := MustNew(cfg)
	rec := telemetry.NewRecorder(0)
	h.SetTelemetry(rec)
	driveProbes(h)
	rec.Finish(h.EventCounts())
	var want uint64
	for _, cs := range h.Cores {
		want += cs.L2InclusionVictims
	}
	if want == 0 {
		t.Fatal("no L2 inclusion victims produced")
	}
	if got := rec.Summary().Events[telemetry.EvL2InclusionVictim.String()]; got != want {
		t.Errorf("L2 inclusion-victim events = %d, counters = %d", got, want)
	}
}

// TestRecorderObservesTLAEvents attaches a recorder and checks the
// events only it observes: ECI rescues (the reuse pattern re-references
// early-invalidated lines while they are still LLC-resident) and one
// QBS depth observation per victim selection that queried, so the depth
// histogram's sum is the query count — observing every query, or
// skipping a selection, breaks the equality.
func TestRecorderObservesTLAEvents(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"eci", func(c *Config) { c.TLA = TLAECI }},
		{"qbs", func(c *Config) { c.TLA = TLAQBS }},
		{"qbs-limit-2", func(c *Config) { c.TLA = TLAQBS; c.QBSMaxQueries = 2 }},
		{"qbs-srrip", func(c *Config) { c.TLA = TLAQBS; c.LLCPolicy = replacement.SRRIP }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := miniProbeConfig(TLANone)
			tc.mut(&cfg)
			h := MustNew(cfg)
			rec := telemetry.NewRecorder(0)
			h.SetTelemetry(rec)
			driveProbes(h)
			rec.Finish(h.EventCounts())
			s := rec.Summary()
			if cfg.TLA == TLAECI {
				if s.Events["eci_rescue"] == 0 || s.ECIRescueDistance == nil {
					t.Fatalf("no ECI rescues observed: %+v", s)
				}
				return
			}
			if h.Traffic.QBSSaves == 0 {
				t.Fatal("no QBS saves: every selection ended on its first query")
			}
			d := s.QBSQueryDepth
			if d == nil || d.Sum != h.Traffic.QBSQueries || s.Events["qbs_query"] != d.Sum {
				t.Fatalf("QBS depth histogram %+v, want sum = %d queries", d, h.Traffic.QBSQueries)
			}
			if d.Count >= d.Sum {
				t.Errorf("%d selections for %d queries: no selection queried twice", d.Count, d.Sum)
			}
		})
	}
}

// TestProbeDetach asserts SetTelemetry(nil) restores the recorder-free
// path.
func TestProbeDetach(t *testing.T) {
	h := MustNew(miniProbeConfig(TLAECI))
	log := &telemetry.DecisionLog{}
	rec := telemetry.NewRecorder(0)
	rec.Decisions = log
	h.SetTelemetry(rec)
	h.SetTelemetry(nil)
	driveProbes(h)
	if s := rec.Summary(); len(s.Events) != 0 || s.ECIRescueDistance != nil || len(log.Records) != 0 {
		t.Errorf("detached recorder still observed events: %+v, %d decisions", s, len(log.Records))
	}
}
