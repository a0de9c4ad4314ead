package decision

import (
	"fmt"
	"io"
	"strings"

	"tlacache/internal/cli"
	"tlacache/internal/hierarchy"
	"tlacache/internal/sim"
	"tlacache/internal/telemetry"
	"tlacache/internal/workload"
)

// CounterfactualConfig names one counterfactual experiment: a base
// machine (policy not yet applied), the workload mix, and the two
// policies to contrast. Sim must have no Telemetry recorder — the
// engine owns the one it attaches.
type CounterfactualConfig struct {
	Sim        sim.Config
	Mix        workload.Mix
	BasePolicy string // cli policy name the trace is captured under
	AltPolicy  string // cli policy name simulated directly as ground truth
}

// Counterfactual is the engine's result: the base run's decision-level
// report (including the per-eviction QBS counterfactual prediction) and
// the direct simulation of the alternative policy as ground truth. Both
// simulations share seed, workload, and machine, so the comparison is
// the policy delta and nothing else.
type Counterfactual struct {
	BasePolicy string        `json:"base_policy"`
	AltPolicy  string        `json:"alt_policy"`
	Report     *Report       `json:"report"`
	Base       sim.MixResult `json:"base"`
	Alt        sim.MixResult `json:"alt"`
}

// RunCounterfactual executes the engine: the base policy runs once with
// an in-memory decision tracer attached, the alternative policy runs
// once without one. Runs are sequential and single-goroutine inside the
// simulator, so results are deterministic and independent of GOMAXPROCS;
// the attached tracer cannot perturb the base run (it only observes —
// see TestCounterfactualTracerInvisible).
func RunCounterfactual(cc CounterfactualConfig) (*Counterfactual, error) {
	if cc.Sim.Telemetry != nil {
		return nil, fmt.Errorf("decision: counterfactual config must not carry observers")
	}
	baseCfg := cc.Sim
	if err := cli.ApplyPolicy(&baseCfg.Hierarchy, cc.BasePolicy); err != nil {
		return nil, err
	}
	altCfg := cc.Sim
	if err := cli.ApplyPolicy(&altCfg.Hierarchy, cc.AltPolicy); err != nil {
		return nil, err
	}

	log := &telemetry.DecisionLog{}
	baseCfg.Telemetry = telemetry.NewRecorder(0)
	baseCfg.Telemetry.Decisions = log
	base, err := sim.RunMix(baseCfg, cc.Mix)
	if err != nil {
		return nil, fmt.Errorf("decision: base policy %s: %w", cc.BasePolicy, err)
	}
	rep, err := AnalyzeRecords(hierarchy.DecisionMetaFor(baseCfg.Hierarchy), log.Records)
	if err != nil {
		return nil, err
	}
	alt, err := sim.RunMix(altCfg, cc.Mix)
	if err != nil {
		return nil, fmt.Errorf("decision: alt policy %s: %w", cc.AltPolicy, err)
	}
	return &Counterfactual{
		BasePolicy: cc.BasePolicy,
		AltPolicy:  cc.AltPolicy,
		Report:     rep,
		Base:       base,
		Alt:        alt,
	}, nil
}

// delta renders alt relative to base as a signed percentage.
func delta(base, alt float64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.2f%%", 100*(alt/base-1))
}

// Render writes the fixed-format counterfactual report: the trace-level
// prediction followed by the direct-simulation ground truth. Output is
// byte-deterministic for identical inputs, which
// TestCounterfactualDeterministic pins at GOMAXPROCS 1 and 8.
func (c *Counterfactual) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "counterfactual: %s vs %s on mix %s (%s)\n\n",
		c.BasePolicy, c.AltPolicy, c.Base.Mix.Name, strings.Join(c.Base.Mix.Apps, ","))
	fmt.Fprintf(&b, "-- trace-level prediction (base run: %s) --\n", c.BasePolicy)
	if err := c.Report.Render(&b); err != nil {
		return err
	}
	fmt.Fprintf(&b, "\n-- direct simulation (ground truth: %s) --\n", c.AltPolicy)
	fmt.Fprintf(&b, "%-22s %14s %14s %10s\n", "metric", c.BasePolicy, c.AltPolicy, "delta")
	fmt.Fprintf(&b, "%-22s %14.3f %14.3f %10s\n", "throughput",
		c.Base.Throughput, c.Alt.Throughput, delta(c.Base.Throughput, c.Alt.Throughput))
	row := func(name string, base, alt uint64) {
		fmt.Fprintf(&b, "%-22s %14d %14d %10s\n", name, base, alt, delta(float64(base), float64(alt)))
	}
	row("LLC misses", c.Base.LLCMisses, c.Alt.LLCMisses)
	row("inclusion victims", c.Base.InclusionVictims, c.Alt.InclusionVictims)
	row("back-invalidates", c.Base.Traffic.BackInvalidates, c.Alt.Traffic.BackInvalidates)
	row("memory reads", c.Base.Traffic.MemoryReads, c.Alt.Traffic.MemoryReads)
	row("memory writebacks", c.Base.Traffic.WritebacksToMem, c.Alt.Traffic.WritebacksToMem)
	if c.Alt.Traffic.QBSQueries > 0 || c.Base.Traffic.QBSQueries > 0 {
		row("QBS queries", c.Base.Traffic.QBSQueries, c.Alt.Traffic.QBSQueries)
		row("QBS saves", c.Base.Traffic.QBSSaves, c.Alt.Traffic.QBSSaves)
	}
	fmt.Fprintf(&b, "\nprediction vs truth: trace flags %s of evictions for a different victim; "+
		"direct %s run changes inclusion victims by %s\n",
		pctOf(c.Report.QBSChanged, c.Report.Evictions), c.AltPolicy,
		delta(float64(c.Base.InclusionVictims), float64(c.Alt.InclusionVictims)))
	_, err := io.WriteString(w, b.String())
	return err
}
