package bench

import (
	"time"

	"tlacache/internal/cache"
	"tlacache/internal/cli"
	"tlacache/internal/cpu"
	"tlacache/internal/hierarchy"
	"tlacache/internal/replacement"
	"tlacache/internal/service"
	"tlacache/internal/sim"
	"tlacache/internal/trace"
	"tlacache/internal/workload"
)

// probeLayers runs the layer probes, which drive single layers through
// their public functions. They are the same on every workload, so a
// traced run of any workload reports them.
func probeLayers(o Options, r *Result) {
	for _, probe := range []func(Options, *Result) error{probeCaches, probeStepper, probeService} {
		r.Attempted++
		if err := probe(o, r); err != nil {
			r.Fail(1, "probe: %v", err)
		}
	}
}

// probeTime is how long each timed probe loop repeats.
func probeTime(o Options) time.Duration {
	if o.Quick {
		return 5 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// repeatFor calls fn until d has passed and returns the mean time per
// call in nanoseconds.
func repeatFor(d time.Duration, fn func()) float64 {
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < d {
		fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// newLLCTStream returns the first data addresses of lib, an LLC-thrashing
// benchmark.
func newLLCTStream(seed uint64, n int) ([]uint64, error) {
	b, err := workload.ByName("lib")
	if err != nil {
		return nil, err
	}
	g, err := b.NewGenerator(seed)
	if err != nil {
		return nil, err
	}
	addrs := make([]uint64, 0, n)
	var in trace.Instr
	for len(addrs) < n {
		g.Next(&in)
		if in.Op != trace.OpNone {
			addrs = append(addrs, in.Addr)
		}
	}
	return addrs, nil
}

// probeCaches times a Lookup plus a promote on a hit or a Fill on a
// miss, per address of an LLCT stream, for each replacement policy the
// paper's caches use. lru8 runs on the packed LRU stacks, lru32 on the
// byte-array fallback above 16 ways.
func probeCaches(o Options, r *Result) error {
	n := 1 << 18
	if o.Quick {
		n = 1 << 12
	}
	addrs, err := newLLCTStream(o.Seed, n)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name   string
		size   int64
		assoc  int
		policy replacement.Kind
	}{
		{"lru8", 256 << 10, 8, replacement.LRU},
		{"lru32", 1 << 20, 32, replacement.LRU},
		{"nru16", 2 << 20, 16, replacement.NRU},
		{"srrip16", 2 << 20, 16, replacement.SRRIP},
	} {
		cc, err := cache.New(cache.Config{Name: c.name, Size: c.size, Assoc: c.assoc, LineSize: 64, Policy: c.policy})
		if err != nil {
			return err
		}
		replay := func() {
			for _, a := range addrs {
				if set, way, ok := cc.Lookup(a); ok {
					cc.PromoteWay(set, way)
				} else {
					cc.Fill(a, 0)
				}
			}
		}
		replay() // warm the cache so the timed replays see steady state
		r.Add("cache.lookup_fill_ns."+c.name, repeatFor(probeTime(o), replay)/float64(n), "ns")
	}
	return nil
}

// probeStepper steps the qbs-2core-long machine outside the run loop,
// as sim's per-instruction loop does, and times a 1-in-64 sample of the
// hierarchy accesses and core timing steps.
func probeStepper(o Options, r *Result) error {
	cfg := sim.DefaultConfig(2)
	cfg.Hierarchy.EnablePrefetch = true
	if err := cli.ApplyPolicy(&cfg.Hierarchy, "qbs"); err != nil {
		return err
	}
	h, err := hierarchy.New(cfg.Hierarchy)
	if err != nil {
		return err
	}
	var gens []*trace.Synthetic
	var cores []*cpu.Core
	for i, app := range []string{"lib", "sje"} {
		b, err := workload.ByName(app)
		if err != nil {
			return err
		}
		g, err := b.NewGenerator(o.Seed + uint64(i)*0x9e37)
		if err != nil {
			return err
		}
		core, err := cpu.New(cfg.CPU)
		if err != nil {
			return err
		}
		gens, cores = append(gens, g), append(cores, core)
	}
	hitLat := cfg.Hierarchy.Latency.L1
	var in trace.Instr
	var fetches, memoHits int
	var ifetch, data, step sampled
	run := func(n int, timed bool) {
		for i := 0; i < n; i++ {
			c := i % len(gens)
			gens[c].Next(&in)
			core := cores[c]
			now := core.Cycle()
			// Sample each core's step alike: every 64th round of the cores.
			sample := timed && (i/len(gens))&sampleMask == 0
			var t0, t1 time.Time
			if timed {
				fetches++
			}
			fetchLat := hitLat
			if h.IFetchMemoHit(c, in.PC) {
				if timed {
					memoHits++
				}
			} else {
				if sample {
					t0, t1 = time.Now(), time.Now()
				}
				fetchLat = h.AccessAt(c, hierarchy.IFetch, in.PC, now).Latency
				if sample {
					ifetch.add(t0, t1, time.Now())
				}
			}
			var memLat uint64
			if in.Op != trace.OpNone {
				kind := hierarchy.Load
				if in.Op == trace.OpStore {
					kind = hierarchy.Store
				}
				if sample {
					t0, t1 = time.Now(), time.Now()
				}
				memLat = h.AccessAt(c, kind, in.Addr, now).Latency
				if sample {
					data.add(t0, t1, time.Now())
				}
			}
			if sample {
				t0, t1 = time.Now(), time.Now()
			}
			core.Instr(fetchLat, memLat, hitLat)
			if sample {
				step.add(t0, t1, time.Now())
			}
		}
	}
	warm, measured := 500_000, 2_000_000
	if o.Quick {
		warm, measured = 10_000, 20_000
	}
	run(warm, false)
	run(measured, true)
	r.Add("hierarchy.ifetch_memo_hit_ratio", ratio(float64(memoHits), float64(fetches)), "ratio")
	r.Add("hierarchy.access_ns.ifetch", ifetch.mean(), "ns")
	r.Add("hierarchy.access_ns.data", data.mean(), "ns")
	r.Add("cpu.instr_ns", step.mean(), "ns")
	return nil
}

// probeService times the daemon's key hashing over specs of every
// policy, and the encoding of a manifest of the service workload's
// budget.
func probeService(o Options, r *Result) error {
	var specs []service.JobSpec
	for _, pair := range workload.AllPairs()[:10] {
		for _, p := range cli.PolicyNames() {
			specs = append(specs, service.JobSpec{Apps: pair.Apps, Policy: p, Seed: o.Seed})
		}
	}
	var err error
	keyNs := repeatFor(probeTime(o), func() {
		for _, s := range specs {
			if _, _, e := service.SpecKey(s); e != nil {
				err = e
			}
		}
	}) / float64(len(specs))
	if err != nil {
		return err
	}
	budget := uint64(100_000)
	if o.Quick {
		budget = 10_000
	}
	m, err := service.Execute(service.JobSpec{Apps: []string{"sje", "lib"}, Policy: "qbs",
		Seed: o.Seed, Instructions: budget, Warmup: &budget}, nil)
	if err != nil {
		return err
	}
	encNs := repeatFor(probeTime(o), func() {
		if _, e := service.EncodeManifest(m); e != nil {
			err = e
		}
	})
	r.Add("service.key_us", keyNs/1e3, "us")
	r.Add("service.encode_us", encNs/1e3, "us")
	return err
}
