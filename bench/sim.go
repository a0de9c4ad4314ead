package bench

import (
	"bytes"
	"encoding/json"
	"slices"
	"time"

	"tlacache/internal/cli"
	"tlacache/internal/experiments"
	"tlacache/internal/hierarchy"
	"tlacache/internal/runner"
	"tlacache/internal/sim"
	"tlacache/internal/workload"
)

// primed is a workload's representative simulation: its config and
// mix, primed during set-up with two 1-instruction runs (the first
// builds the machine, the second reuses it from the pool), and in a
// traced run simulated once more through the timed generators.
type primed struct {
	cfg        sim.Config
	mix        workload.Mix
	cold, warm float64 // ms
}

func prime(cfg sim.Config, mix workload.Mix) (primed, error) {
	p := primed{cfg: cfg, mix: mix}
	one := cfg
	one.Instructions, one.Warmup = 1, 0
	for _, ms := range []*float64{&p.cold, &p.warm} {
		start := time.Now()
		if _, err := sim.RunMix(one, mix); err != nil {
			return p, err
		}
		*ms = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return p, nil
}

// instructions is the run's simulated-instruction budget across cores.
func (p primed) instructions() float64 {
	return float64(p.cfg.Hierarchy.Cores) * float64(p.cfg.Warmup+p.cfg.Instructions)
}

// setupLayers adds the two priming runs' timings.
func (p primed) setupLayers(r *Result) {
	r.Add("sim.setup_cold_ms", p.cold, "ms")
	r.Add("sim.setup_warm_ms", p.warm, "ms")
}

// traceOnce simulates the representative config through the timed
// generators, checks the result against an untraced run, and adds the
// sim-layer metrics. Workloads whose passes are not simulations of
// their own get their sim layers this way.
func (p primed) traceOnce(r *Result, tr *tracer) {
	r.Attempted++
	want, err := sim.RunMix(p.cfg, p.mix)
	if err != nil {
		r.Fail(1, "%s untraced: %v", p.mix.Name, err)
		return
	}
	got, _, err := tr.runTraced(p.cfg, p.mix, 0)
	switch {
	case err != nil:
		r.Fail(1, "%s traced: %v", p.mix.Name, err)
	case resultDigest(got) != resultDigest(want):
		r.Fail(1, "%s: traced RunGenerators result differs from RunMix", p.mix.Name)
	}
	tr.simLayers(r)
}

// resultDigest hashes a result's JSON encoding.
func resultDigest(res sim.MixResult) string {
	data, err := json.Marshal(res)
	if err != nil {
		panic(err) // MixResult holds only numbers and strings
	}
	return digestOf(data)
}

// longSim repeats one long simulation: each pass is a repetition.
type longSim struct {
	primed
	walls []float64 // untraced repetitions
}

func startQBSLong(o Options) (session, error) {
	cfg := sim.DefaultConfig(2)
	cfg.Hierarchy.EnablePrefetch = true
	if err := cli.ApplyPolicy(&cfg.Hierarchy, "qbs"); err != nil {
		return nil, err
	}
	cfg.Warmup, cfg.Instructions = 2_500_000, 5_000_000
	if o.Quick {
		cfg.Warmup, cfg.Instructions = 20_000, 20_000
	}
	cfg.Seed = o.Seed
	mix, err := cli.ResolveMix("MIX_10")
	if err != nil {
		return nil, err
	}
	p, err := prime(cfg, mix)
	return &longSim{primed: p}, err
}

func startNI8Long(o Options) (session, error) {
	cfg := sim.DefaultConfig(8)
	cfg.Hierarchy.Inclusion = hierarchy.NonInclusive
	cfg.Warmup, cfg.Instructions = 1_500_000, 500_000
	if o.Quick {
		cfg.Warmup, cfg.Instructions = 10_000, 10_000
	}
	cfg.Seed = o.Seed
	// The mix is fixed, drawn once with seed 1 (h26 mcf dea xal sje wrf
	// hmm sph); the run's seed varies only the streams. Host time
	// differs by tens of percent between random 8-app mixes, which
	// would swamp any change under test.
	mixes, err := workload.RandomMixes(1, 8, 1)
	if err != nil {
		return nil, err
	}
	p, err := prime(cfg, mixes[0])
	return &longSim{primed: p}, err
}

func (s *longSim) pass(r *Result, tr *tracer) passOut {
	var res sim.MixResult
	var wall float64
	var err error
	if tr == nil {
		start := time.Now()
		res, err = sim.RunMix(s.cfg, s.mix)
		wall = time.Since(start).Seconds()
		s.walls = append(s.walls, wall)
	} else {
		id, done := tr.span("repetition", 0)
		res, wall, err = tr.runTraced(s.cfg, s.mix, id)
		done()
	}
	if err != nil {
		r.Fail(1, "%s: %v", s.mix.Name, err)
		return passOut{wall: wall, ops: 1}
	}
	return passOut{wall: wall, ops: 1, digest: resultDigest(res)}
}

func (s *longSim) report(r *Result) {
	best := slices.Min(s.walls)
	r.Add("sim_ns_per_instr", best*1e9/s.instructions(), "ns")
	r.Add("op_p50_ms", best*1e3, "ms")
}

func (s *longSim) layers(r *Result, tr *tracer) {
	s.setupLayers(r)
	tr.simLayers(r)
}

func (s *longSim) close() {}

// figure8Cells is the sweep's cell count: 12 Table II mixes under the
// 7 policies Figure 8 compares.
const figure8Cells = 12 * 7

// sweep regenerates Figure 8; each pass is one regeneration.
type sweep struct {
	primed
	run   experiments.Runner
	opts  experiments.Options
	walls []float64 // untraced regenerations
	cells []float64 // traced cell walls, ms
	util  []float64 // traced: busy share of the workers
}

func startSweep(o Options) (session, error) {
	run, err := experiments.ByName("figure8")
	if err != nil {
		return nil, err
	}
	opts := experiments.DefaultOptions()
	if o.Quick {
		opts.Warmup, opts.Instructions = 10_000, 10_000
	}
	opts.Workers, opts.Seed = 2, o.Seed
	// The representative cell is MIX_10 under QBS, built the way the
	// experiments package builds its Figure 8 cells.
	cfg := sim.DefaultConfig(2)
	cfg.Instructions, cfg.Warmup, cfg.Seed = opts.Instructions, opts.Warmup, opts.Seed
	cfg.Hierarchy.EnablePrefetch = true
	if err := cli.ApplyPolicy(&cfg.Hierarchy, "qbs"); err != nil {
		return nil, err
	}
	mix, err := cli.ResolveMix("MIX_10")
	if err != nil {
		return nil, err
	}
	p, err := prime(cfg, mix)
	return &sweep{primed: p, run: run, opts: opts}, err
}

func (s *sweep) pass(r *Result, tr *tracer) passOut {
	opts := s.opts
	var col *runner.Collector
	if tr != nil {
		col = runner.NewCollector()
		opts.Stats = col
		_, done := tr.span("artifact.figure8", 0)
		defer done()
	}
	start := time.Now()
	tables, err := s.run(opts)
	wall := time.Since(start).Seconds()
	if err != nil {
		r.Fail(figure8Cells, "figure8: %v", err)
		return passOut{wall: wall, ops: figure8Cells}
	}
	var buf bytes.Buffer
	for _, t := range tables {
		if err := t.Render(&buf); err != nil {
			r.Fail(figure8Cells, "figure8 render: %v", err)
			return passOut{wall: wall, ops: figure8Cells}
		}
	}
	if tr == nil {
		s.walls = append(s.walls, wall)
	} else {
		busy := 0.0
		for _, j := range col.Jobs() {
			s.cells = append(s.cells, j.WallSeconds*1e3)
			busy += j.WallSeconds
		}
		s.util = append(s.util, busy/(float64(opts.Workers)*wall))
	}
	return passOut{wall: wall, ops: figure8Cells, digest: digestOf(buf.Bytes())}
}

func (s *sweep) report(r *Result) {
	wall := slices.Min(s.walls)
	r.Add("sim_ns_per_instr", wall*1e9/(figure8Cells*s.instructions()), "ns")
	r.Add("op_p50_ms", wall*1e3, "ms")
	r.Add("artifact_wall_s", wall, "s")
}

func (s *sweep) layers(r *Result, tr *tracer) {
	s.setupLayers(r)
	s.traceOnce(r, tr)
	r.Add("runner.cell_wall_p50_ms", Median(s.cells), "ms")
	r.Add("runner.cell_wall_max_ms", Percentile(s.cells, 100), "ms")
	r.Add("runner.utilization", Median(s.util), "ratio")
}

func (s *sweep) close() {}
