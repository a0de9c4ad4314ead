// Package service turns the simulator into a shared network service:
// it defines the wire-level job specification accepted by the
// tlacached daemon, the canonical content-address (Key) that makes
// identical requests collapse onto one cached result, and the job
// executor that produces the byte-stable result manifest the cache
// stores.
//
// The soundness of serving a cached manifest instead of re-simulating
// rests on the simulator's determinism contract: a run's MixResult and
// probe summary are pure functions of (machine config, workload,
// policy, seed, budgets) — the exact tuple Key hashes — regardless of
// GOMAXPROCS or scheduling (internal/sim's determinism regression pins
// this). Environment and wall-time fields in the manifest are
// annotations of the original execution, recorded once at fill time.
package service

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"

	"tlacache/internal/cli"
	"tlacache/internal/runner"
	"tlacache/internal/sim"
	"tlacache/internal/telemetry"
	"tlacache/internal/workload"
)

// DefaultInstructions and DefaultWarmup are the per-core budgets a
// JobSpec gets when it leaves them unset, matching tlasim's defaults.
const (
	DefaultInstructions = 1_000_000
	DefaultWarmup       = 1_500_000
)

// JobSpec is one simulation request as submitted to the daemon:
// machine configuration overrides, workload, policy, seed, and
// instruction budgets. The zero value is not submittable — a workload
// (Mix or Apps) is required.
type JobSpec struct {
	// Mix names a Table II mix (MIX_00 … MIX_11). Mutually exclusive
	// with Apps; normalisation resolves it into Apps so both spellings
	// of the same workload share one cache key.
	Mix string `json:"mix,omitempty"`
	// Apps lists benchmark tags, one per core ("sje","lib").
	Apps []string `json:"apps,omitempty"`
	// Policy is an LLC management policy name (cli.PolicyNames);
	// empty means "baseline".
	Policy string `json:"policy,omitempty"`
	// Seed diversifies the synthetic streams; the default 0 is
	// normalised to 1 (the simulator's conventional seed).
	Seed uint64 `json:"seed,omitempty"`
	// Instructions is the per-core measured budget (default 1M).
	Instructions uint64 `json:"instructions,omitempty"`
	// Warmup is the per-core warmup budget; nil means the 1.5M
	// default, an explicit 0 disables warmup.
	Warmup *uint64 `json:"warmup,omitempty"`
	// LLC overrides the LLC size ("1MB", "512KB"); empty keeps the
	// paper's default of 1MB per core.
	LLC string `json:"llc,omitempty"`
	// NoPrefetch disables the stream prefetcher.
	NoPrefetch bool `json:"no_prefetch,omitempty"`
	// Interval, when positive, samples per-core interval telemetry
	// every Interval committed instructions and streams it to event
	// subscribers. It is transport-level observability: samples are
	// not part of the result manifest, so Interval does not enter the
	// cache key.
	Interval uint64 `json:"interval,omitempty"`
}

// Normalize fills defaults and resolves the workload so that every
// spelling of the same request yields the same normalized spec (and
// therefore the same Key): Mix names resolve to their app list, the
// empty policy becomes "baseline", zero budgets take defaults.
func (s JobSpec) Normalize() (JobSpec, error) {
	if s.Mix != "" {
		m, err := cli.ResolveMix(s.Mix)
		if err != nil {
			return s, fmt.Errorf("service: %w", err)
		}
		// Both set is an error unless Apps is exactly the mix's app
		// list — the shape normalisation itself produces, so Normalize
		// stays idempotent and an already-normalized spec re-validates.
		if len(s.Apps) > 0 && !slices.Equal(s.Apps, m.Apps) {
			return s, fmt.Errorf("service: spec sets both mix %q and apps %v", s.Mix, s.Apps)
		}
		s.Apps = m.Apps
		s.Mix = m.Name
	}
	if len(s.Apps) == 0 {
		return s, fmt.Errorf("service: spec names no workload (set mix or apps)")
	}
	for i, a := range s.Apps {
		if _, err := workload.ByName(a); err != nil {
			return s, fmt.Errorf("service: app %d: %w", i, err)
		}
	}
	if s.Policy == "" {
		s.Policy = "baseline"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Instructions == 0 {
		s.Instructions = DefaultInstructions
	}
	if s.Warmup == nil {
		w := uint64(DefaultWarmup)
		s.Warmup = &w
	}
	return s, nil
}

// Resolve builds the full simulator configuration a normalized spec
// describes. It errors on unknown policies or malformed size
// overrides; the returned config has passed sim.Config.Validate.
func (s JobSpec) Resolve() (sim.Config, error) {
	cfg := sim.DefaultConfig(len(s.Apps))
	cfg.Instructions = s.Instructions
	if s.Warmup != nil {
		cfg.Warmup = *s.Warmup
	}
	cfg.Seed = s.Seed
	cfg.Hierarchy.EnablePrefetch = !s.NoPrefetch
	if s.LLC != "" {
		size, err := cli.ParseSize(s.LLC)
		if err != nil {
			return cfg, fmt.Errorf("service: llc: %w", err)
		}
		cfg.Hierarchy.LLCSize = size
	}
	if err := cli.ApplyPolicy(&cfg.Hierarchy, s.Policy); err != nil {
		return cfg, fmt.Errorf("service: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("service: %w", err)
	}
	return cfg, nil
}

// SpecKey normalizes and resolves spec, returning the normalized spec
// and its canonical cache key.
func SpecKey(spec JobSpec) (JobSpec, string, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return spec, "", err
	}
	cfg, err := norm.Resolve()
	if err != nil {
		return norm, "", err
	}
	return norm, Key(cfg, norm.Apps, norm.Policy, norm.Seed), nil
}

// Manifest is the cached result artifact: the normalized request, the
// deterministic simulation result and probe summary, and annotations
// (environment, wall time) of the execution that filled the cache
// entry. Cache hits serve the stored bytes verbatim, so a manifest is
// byte-identical on every hit.
type Manifest struct {
	Key  string  `json:"key"`
	Spec JobSpec `json:"spec"`
	// Result and Telemetry are pure functions of Key (determinism
	// contract; see the package comment).
	Result    sim.MixResult      `json:"result"`
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
	// Env and WallSeconds describe the original execution, not the
	// request; they are recorded once when the entry is filled.
	Env         runner.EnvInfo `json:"environment"`
	WallSeconds float64        `json:"wall_seconds"`
	// RequestID identifies the request that filled this entry (cache
	// hits serve the filler's ID — the manifest annotates the original
	// execution, and X-Request-Id on the response names the hit).
	RequestID string `json:"request_id,omitempty"`
	// Phases breaks the filling execution's wall time into daemon
	// phases; set by the daemon, absent when Execute runs standalone.
	Phases *PhaseSpans `json:"phases,omitempty"`
}

// PhaseSpans is the daemon-side decomposition of one executed job's
// wall time, in seconds: how long the job waited for a worker slot,
// how long the submission's cache lookup took, the simulation itself,
// and manifest encoding. Like Env and WallSeconds these annotate the
// execution that filled the cache entry, not the request being served.
type PhaseSpans struct {
	AdmissionWaitSeconds float64 `json:"admission_wait_seconds"`
	CacheLookupSeconds   float64 `json:"cache_lookup_seconds"`
	SimulateSeconds      float64 `json:"simulate_seconds"`
	EncodeSeconds        float64 `json:"encode_seconds"`
}

// EncodeManifest renders m in the canonical stored form: indented
// JSON with a trailing newline. The manifest bytes are part of the
// byte-determinism contract (identical runs re-verify against the
// cached manifest) except for the execution annotations Env,
// WallSeconds and Phases: TestExecuteDeterministic pins the rest, and
// TestManifestRoundTrip checks that a manifest with every field set
// survives encoding and decoding.
func EncodeManifest(m Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("service: encoding manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeManifest parses stored manifest bytes.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("service: decoding manifest: %w", err)
	}
	return m, nil
}

// Execute runs spec's simulation and returns its manifest. The spec
// must already be normalized (Execute normalizes again defensively —
// normalisation is idempotent). sink, when non-nil, receives interval
// telemetry samples live from the simulation goroutine when
// spec.Interval is positive.
func Execute(spec JobSpec, sink func(telemetry.Sample)) (Manifest, error) {
	norm, key, err := SpecKey(spec)
	if err != nil {
		return Manifest{}, err
	}
	cfg, err := norm.Resolve()
	if err != nil {
		return Manifest{}, err
	}
	rec := telemetry.NewRecorder(norm.Interval)
	rec.Sink = sink
	cfg.Telemetry = rec
	mixName := norm.Mix
	if mixName == "" {
		mixName = "custom"
	}
	start := time.Now()
	res, err := sim.RunMix(cfg, workload.Mix{Name: mixName, Apps: norm.Apps})
	if err != nil {
		return Manifest{}, err
	}
	m := Manifest{
		Key:         key,
		Spec:        norm,
		Result:      res,
		Env:         runner.CollectEnv(),
		WallSeconds: time.Since(start).Seconds(),
	}
	if s := rec.Summary(); len(s.Events) > 0 || s.QBSQueryDepth != nil || s.ECIRescueDistance != nil {
		m.Telemetry = &s
	}
	return m, nil
}

// Work returns the spec's total simulated-instruction budget (warmup
// plus measurement across all cores), the quantity the runner's
// observability reports against.
func (s JobSpec) Work() uint64 {
	w := uint64(0)
	if s.Warmup != nil {
		w = *s.Warmup
	}
	return uint64(len(s.Apps)) * (w + s.Instructions)
}

// Mixes returns the names of the predefined Table II mixes, sorted —
// the daemon's /v1/workloads endpoint serves these so clients can
// discover submittable workloads.
func Mixes() []string {
	ms := workload.TableIIMixes()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}
