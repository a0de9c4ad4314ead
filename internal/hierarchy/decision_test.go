package hierarchy

import (
	"testing"

	"tlacache/internal/telemetry"
)

// smallDecisionConfig is a 1-core machine with an LLC much smaller than
// the core caches, so LLC evictions (and inclusion victims) are
// plentiful in a short drive.
func smallDecisionConfig() Config {
	cfg := DefaultConfig(1)
	cfg.LLCSize = 16 << 10 // 16 sets x 16 ways = 256 lines
	return cfg
}

// traceDecisions attaches a recorder that logs every LLC victim
// decision h makes.
func traceDecisions(h *Hierarchy) *telemetry.DecisionLog {
	log := &telemetry.DecisionLog{}
	rec := telemetry.NewRecorder(0)
	rec.Decisions = log
	h.SetTelemetry(rec)
	return log
}

// driveDecisions streams n distinct-then-recycled load lines through
// core 0.
func driveDecisions(h *Hierarchy, n int) {
	for i := 0; i < n; i++ {
		h.Access(0, Load, uint64(i%2048)*64)
	}
}

func TestDecisionTracerRecords(t *testing.T) {
	cfg := smallDecisionConfig()
	h := MustNew(cfg)
	log := traceDecisions(h)
	driveDecisions(h, 8192)

	if len(log.Records) == 0 {
		t.Fatal("no decisions recorded despite LLC pressure")
	}
	meta := h.DecisionMeta()
	if meta != DecisionMetaFor(cfg) {
		t.Errorf("DecisionMetaFor(cfg) = %+v, hierarchy says %+v", DecisionMetaFor(cfg), meta)
	}
	if meta.Sets != h.LLC().NumSets() || meta.Assoc != cfg.LLCAssoc {
		t.Errorf("meta geometry %+v does not match the built LLC", meta)
	}
	victims := 0
	for i := range log.Records {
		d := &log.Records[i]
		if d.Seq != uint64(i+1) {
			t.Fatalf("record %d has Seq %d; sequence must be dense from 1", i, d.Seq)
		}
		if d.ChosenWay < 0 || d.ChosenWay >= cfg.LLCAssoc {
			t.Fatalf("record %d chose way %d outside assoc %d", i, d.ChosenWay, cfg.LLCAssoc)
		}
		if len(d.Candidates) != cfg.LLCAssoc {
			t.Fatalf("record %d has %d candidates, want %d", i, len(d.Candidates), cfg.LLCAssoc)
		}
		if got := h.LLC().SetIndex(d.NewAddr); got != d.Set {
			t.Fatalf("record %d: NewAddr %#x maps to set %d, record says %d", i, d.NewAddr, got, d.Set)
		}
		for w, c := range d.Candidates {
			if c.Way != w {
				t.Fatalf("record %d candidate %d labeled way %d", i, w, c.Way)
			}
			if !c.Valid && (c.Dirty || c.Presence != 0) {
				t.Fatalf("record %d: invalid candidate %d carries state %+v", i, w, c)
			}
		}
		// Cold fills (invalid chosen way) are trivially QBS-agreed and
		// cannot produce inclusion victims.
		if !d.Candidates[d.ChosenWay].Valid {
			if d.QBSWay != d.ChosenWay {
				t.Fatalf("record %d: cold fill disagrees with QBS emulation (%d vs %d)",
					i, d.QBSWay, d.ChosenWay)
			}
			if d.InclusionVictims != 0 {
				t.Fatalf("record %d: cold fill claims %d inclusion victims", i, d.InclusionVictims)
			}
		}
		// A chosen way the directory proves empty is QBS-agreed by
		// construction.
		if c := d.Candidates[d.ChosenWay]; c.Valid && c.Presence == 0 && d.QBSWay != d.ChosenWay {
			t.Fatalf("record %d: presence-empty victim disagrees with QBS emulation", i)
		}
		victims += d.InclusionVictims
	}

	// Conservation: every inclusion victim comes from a traced eviction
	// (fillLLC or insertLLCFromL2), so the per-record counts must sum to
	// the aggregate counter exactly.
	if agg := int(h.Cores[0].InclusionVictims); victims != agg {
		t.Errorf("traced inclusion victims %d != aggregate counter %d", victims, agg)
	}
	if victims == 0 {
		t.Error("expected inclusion victims with an LLC smaller than the core caches")
	}
}

// Attaching a tracer must not change simulation behaviour: the tracer
// observes decisions, it does not participate in them.
func TestDecisionTracerDoesNotPerturb(t *testing.T) {
	for _, tla := range []TLAPolicy{TLANone, TLAQBS, TLAECI} {
		cfg := smallDecisionConfig()
		cfg.TLA = tla
		plain := MustNew(cfg)
		driveDecisions(plain, 8192)

		traced := MustNew(cfg)
		traceDecisions(traced)
		driveDecisions(traced, 8192)

		if plain.Cores[0] != traced.Cores[0] {
			t.Errorf("%v: core stats diverge with tracer attached:\nplain  %+v\ntraced %+v",
				tla, plain.Cores[0], traced.Cores[0])
		}
		if plain.Traffic != traced.Traffic {
			t.Errorf("%v: traffic diverges with tracer attached:\nplain  %+v\ntraced %+v",
				tla, plain.Traffic, traced.Traffic)
		}
	}
}

// Under the real QBS policy the emulation must agree with the actual
// choice whenever QBS itself settled on a core-non-resident victim. The
// config makes the LLC larger than the L2 so its eviction candidates
// have genuinely aged out of the core caches — the regime where QBS
// terminates normally instead of exhausting its query budget.
func TestDecisionTracerQBSAgreement(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.LLCSize = 512 << 10 // 8192 lines, vs 4096 in the 256 KiB L2
	cfg.TLA = TLAQBS
	cfg.QBSProbe = AllCaches
	h := MustNew(cfg)
	log := traceDecisions(h)
	for i := 0; i < 49152; i++ {
		h.Access(0, Load, uint64(i%16384)*64)
	}

	if len(log.Records) == 0 {
		t.Fatal("no decisions recorded")
	}
	agree, exhausted := 0, 0
	for i := range log.Records {
		d := &log.Records[i]
		switch {
		case d.QBSWay == d.ChosenWay:
			agree++
		case d.QBSWay == telemetry.NoWay:
			// Every candidate resident: real QBS hit its query limit.
			// The record must prove the regime — a chosen way that is
			// valid and directory-tracked.
			c := d.Candidates[d.ChosenWay]
			if !c.Valid || c.Presence == 0 {
				t.Fatalf("record %d: emulation says all-resident but chose %+v", i, c)
			}
			exhausted++
		}
	}
	// The emulation mirrors the live policy's probes, so disagreement is
	// confined to query-limit corner cases; demand a strong majority of
	// exact agreement in this non-resident-victim regime.
	if frac := float64(agree) / float64(len(log.Records)); frac < 0.9 {
		t.Errorf("QBS emulation agrees on only %.1f%% of %d decisions (%d budget-exhausted)",
			frac*100, len(log.Records), exhausted)
	}
}

// The exclusive-mode fill path (L2 eviction inserting into the LLC)
// must fire the tracer too.
func TestDecisionTracerExclusiveMode(t *testing.T) {
	cfg := smallDecisionConfig()
	cfg.Inclusion = Exclusive
	h := MustNew(cfg)
	log := traceDecisions(h)
	// Cycle more lines than the L2 holds: exclusive-mode LLC fills only
	// happen when the L2 evicts.
	for i := 0; i < 32768; i++ {
		h.Access(0, Load, uint64(i%8192)*64)
	}

	if len(log.Records) == 0 {
		t.Fatal("exclusive mode recorded no decisions (insertLLCFromL2 not traced?)")
	}
	for i := range log.Records {
		if v := log.Records[i].InclusionVictims; v != 0 {
			t.Fatalf("record %d: exclusive mode cannot back-invalidate, yet %d victims", i, v)
		}
	}
}
