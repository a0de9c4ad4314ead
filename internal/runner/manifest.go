package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"tlacache/internal/telemetry"
)

// JobStat is one job's observability record in the run manifest.
type JobStat struct {
	// Index is the job's submission position within its Run batch.
	Index int `json:"index"`
	// Name identifies the job, e.g. "MIX_04/QBS".
	Name string `json:"name"`
	// WallSeconds is the job's wall-clock execution time.
	WallSeconds float64 `json:"wall_seconds"`
	// Instructions is the job's simulated-instruction budget (warmup
	// plus measurement, across all cores).
	Instructions uint64 `json:"instructions"`
	// IPS is simulated instructions per wall-clock second.
	IPS float64 `json:"instructions_per_second"`
	// Error records the job's failure, empty on success.
	Error string `json:"error,omitempty"`
}

// EnvInfo records the machine and toolchain a run executed on, making
// manifests self-describing for cross-machine performance comparisons.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// VCSRevision, VCSTime, and VCSModified come from the binary's
	// embedded build info; they are empty for builds without VCS
	// stamping (e.g. `go test` binaries).
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// CollectEnv captures the current process's environment info.
func CollectEnv() EnvInfo {
	e := EnvInfo{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.VCSRevision = s.Value
			case "vcs.time":
				e.VCSTime = s.Value
			case "vcs.modified":
				e.VCSModified = s.Value == "true"
			}
		}
	}
	return e
}

// Collector accumulates JobStats across every Run call of one
// experiment. It is goroutine-safe; a nil *Collector discards
// everything.
type Collector struct {
	mu        sync.Mutex
	jobs      []JobStat
	summaries []telemetry.Summary
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// add records one completed job's stats.
func (c *Collector) add(s JobStat) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobs = append(c.jobs, s)
}

// AddTelemetry records one job's telemetry summary under the job's name,
// for inclusion in the run manifest. Goroutine-safe; nil-safe.
func (c *Collector) AddTelemetry(name string, s telemetry.Summary) {
	if c == nil {
		return
	}
	s.Name = name
	c.mu.Lock()
	defer c.mu.Unlock()
	c.summaries = append(c.summaries, s)
}

// Telemetry returns a copy of the recorded telemetry summaries, sorted by
// name so the manifest is stable across completion orderings.
func (c *Collector) Telemetry() []telemetry.Summary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]telemetry.Summary, len(c.summaries))
	copy(out, c.summaries)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Jobs returns a copy of the recorded stats, sorted by batch index then
// name so the manifest is stable across completion orderings.
func (c *Collector) Jobs() []JobStat {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobStat, len(c.jobs))
	copy(out, c.jobs)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Index != out[b].Index {
			return out[a].Index < out[b].Index
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Manifest is the JSON run record written alongside an experiment's
// CSVs: what ran, with which options, how it was parallelised, and how
// fast each job and the whole run went.
type Manifest struct {
	Experiment string `json:"experiment"`
	// Options echoes the experiment options the run used (instruction
	// budgets, workload population, seed).
	Options interface{} `json:"options,omitempty"`
	Seed    uint64      `json:"seed"`
	// Workers is the resolved worker-pool width the run executed with.
	Workers int `json:"workers"`
	// JobCount and FailedJobs summarise Jobs.
	JobCount   int `json:"job_count"`
	FailedJobs int `json:"failed_jobs"`
	// TotalWallSeconds is the experiment's end-to-end wall time (not
	// the sum of job times — under parallel execution it is smaller).
	TotalWallSeconds float64 `json:"total_wall_seconds"`
	// TotalInstructions sums every job's simulated-instruction budget.
	TotalInstructions uint64 `json:"total_instructions"`
	// AggregateIPS is TotalInstructions over TotalWallSeconds: the
	// sweep-level simulated-instruction throughput, the number the
	// worker count exists to raise.
	AggregateIPS float64   `json:"aggregate_instructions_per_second"`
	Jobs         []JobStat `json:"jobs"`
	// Env records the machine and toolchain the run executed on.
	Env EnvInfo `json:"environment"`
	// Telemetry holds per-job telemetry summaries (event counts, QBS
	// query-depth and ECI rescue-distance histograms) when the run was
	// instrumented; absent otherwise.
	Telemetry []telemetry.Summary `json:"telemetry,omitempty"`
}

// Manifest builds the run manifest for one experiment from the
// collected job stats. Callers fill Seed and Options afterwards.
func (c *Collector) Manifest(experiment string, workers int, wall time.Duration) Manifest {
	m := Manifest{
		Experiment:       experiment,
		Workers:          workers,
		TotalWallSeconds: wall.Seconds(),
		Jobs:             c.Jobs(),
		Env:              CollectEnv(),
		Telemetry:        c.Telemetry(),
	}
	m.JobCount = len(m.Jobs)
	for _, j := range m.Jobs {
		m.TotalInstructions += j.Instructions
		if j.Error != "" {
			m.FailedJobs++
		}
	}
	m.AggregateIPS = ipsOf(m.TotalInstructions, wall.Seconds())
	return m
}

// WriteManifest writes m as indented JSON to
// dir/<experiment>-manifest.json, creating dir if needed.
func WriteManifest(dir string, m Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, m.Experiment+"-manifest.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return fmt.Errorf("runner: writing manifest %s: %w", path, err)
	}
	return f.Close()
}
