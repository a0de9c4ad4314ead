package sim

import (
	"runtime"
	"sync"

	"tlacache/internal/cpu"
	"tlacache/internal/hierarchy"
	"tlacache/internal/trace"
)

// Machine and generator pooling: building a hierarchy allocates the
// full modelled state (every cache's tag, flag, presence, and
// replacement arrays), which dwarfs the work of short runs and of every
// warmup-reset. Sweeps run thousands of cells over a handful of
// distinct machine shapes, and every inclusion mode and TLA policy of
// one geometry shares a shape (hierarchy.Config.Shape), so
// RunGenerators checks these free lists before building. Reuse is
// sound because hierarchy.Reset and cpu.Core.Reset restore the exact
// state a fresh build of the next run's configuration would have —
// compared field for field by TestResetClearsEverything (hierarchy),
// TestReset (cpu) and TestResetEquivalence (sim), which also compares
// reused runs' outputs with fresh ones byte for byte.

// machineKey identifies a machine shape: the hierarchy config's Shape
// and the core config. Both are flat value structs, so the composite is
// a valid map key and two equal keys describe identical shapes.
type machineKey struct {
	h hierarchy.Config
	c cpu.Config
}

// machine bundles one run's reusable state: the hierarchy, the cores,
// and the interleave scratch.
type machine struct {
	key       machineKey
	h         *hierarchy.Hierarchy
	cores     []*cpu.Core
	committed []uint64
	finished  []bool
	clocks    []uint64 // each core's clock as of its last burst
	ipcs      []float64
	apps      []AppResult
}

// maxFree bounds each shape's free list so a sweep over many distinct
// machine shapes cannot pin more idle model state per shape than its
// worker pool could ever use at once.
var maxFree = runtime.NumCPU()

var machinePool = struct {
	sync.Mutex
	free map[machineKey][]*machine
}{free: map[machineKey][]*machine{}}

// acquireMachine returns a pooled machine of the configuration's shape
// reset to the configuration, building one only when the shape's free
// list is empty.
func acquireMachine(hc hierarchy.Config, cc cpu.Config) (*machine, error) {
	key := machineKey{h: hc.Shape(), c: cc}
	machinePool.Lock()
	if s := machinePool.free[key]; len(s) > 0 {
		m := s[len(s)-1]
		s[len(s)-1] = nil
		machinePool.free[key] = s[:len(s)-1]
		machinePool.Unlock()
		m.h.Reset(hc)
		for _, c := range m.cores {
			c.Reset()
		}
		return m, nil
	}
	machinePool.Unlock()
	return newMachine(hc, cc)
}

// newMachine builds a machine for the configuration, bypassing the pool.
func newMachine(hc hierarchy.Config, cc cpu.Config) (*machine, error) {
	h, err := hierarchy.New(hc)
	if err != nil {
		return nil, err
	}
	n := hc.Cores
	m := &machine{
		key:       machineKey{h: hc.Shape(), c: cc},
		h:         h,
		cores:     make([]*cpu.Core, n),
		committed: make([]uint64, n),
		finished:  make([]bool, n),
		clocks:    make([]uint64, n),
		ipcs:      make([]float64, n),
		apps:      make([]AppResult, n),
	}
	for i := 0; i < n; i++ {
		if m.cores[i], err = cpu.New(cc); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// releaseMachine returns a machine to its free list. Only runs that
// completed successfully release: a machine abandoned mid-run by an
// error holds the state that produced it, and is deliberately left to
// the garbage collector so it cannot feed a later run. The
// caller-owned recorder is dropped first so the pool never prolongs
// its lifetime.
func releaseMachine(m *machine) {
	m.h.SetTelemetry(nil)
	machinePool.Lock()
	if s := machinePool.free[m.key]; len(s) < maxFree {
		machinePool.free[m.key] = append(s, m)
	}
	machinePool.Unlock()
}

var synthPool = struct {
	sync.Mutex
	free []*trace.Synthetic
}{}

// acquireSynthetic returns a generator initialised for (prof, seed),
// bit-identical to trace.NewSynthetic(prof, seed): pooled instances are
// unconditionally re-derived through Reinit, so no state of a previous
// profile — including customised copies of registered profiles — can
// leak into a run.
func acquireSynthetic(prof trace.Profile, seed uint64) (*trace.Synthetic, error) {
	synthPool.Lock()
	var g *trace.Synthetic
	if n := len(synthPool.free); n > 0 {
		g = synthPool.free[n-1]
		synthPool.free[n-1] = nil
		synthPool.free = synthPool.free[:n-1]
	}
	synthPool.Unlock()
	if g == nil {
		return trace.NewSynthetic(prof, seed)
	}
	if err := g.Reinit(prof, seed); err != nil {
		releaseSynthetic(g, 1)
		return nil, err
	}
	return g, nil
}

// releaseSynthetic returns a generator of a run on the given number of
// cores to the free list. Unlike machines, generators may be released
// after failed runs too: Reinit re-derives every field on the next
// acquire, so a generator carries no state that could survive into a
// later run. A run holds one generator per core, so the list keeps up to
// maxFree runs' worth of the widest run releasing into it.
func releaseSynthetic(g *trace.Synthetic, cores int) {
	synthPool.Lock()
	if len(synthPool.free) < maxFree*cores {
		synthPool.free = append(synthPool.free, g)
	}
	synthPool.Unlock()
}
