// Package sim is a golden fixture for detflow's simulation-package ban.
// Its import path ("tlacache/internal/sim") places it inside the
// simulation-package scope, so every reproducibility hazard below must
// be reported at the marked line: imports of math/rand (under any
// alias), use sites of rand values, wall-clock reads (Now, Since,
// Until), order-dependent map iteration, and sync.Map iteration.
package sim

import (
	"math/rand" // want `import of math/rand in a simulation package`
	"sync"
	"time"

	mrand "math/rand/v2" // want `import of math/rand/v2 in a simulation package`
)

// State stands in for simulator state that outlives a loop iteration.
type State struct {
	Total  uint64
	ByAddr map[uint64]uint64
}

// Stamp consults the wall clock, which a trace replay must never do.
func Stamp(s *State) int64 {
	s.Total += uint64(rand.Intn(8)) // want `math/rand use in a simulation package`
	return time.Now().UnixNano()    // want `time\.Now in a simulation package`
}

// Jitter hides the random source behind an import alias; use-site
// resolution through the type checker still finds it.
func Jitter(s *State) {
	s.Total += mrand.Uint64() // want `math/rand use in a simulation package`
}

// Elapsed reads the wall clock through the Since/Until helpers.
func Elapsed(t0 time.Time) (time.Duration, time.Duration) {
	return time.Since(t0), // want `time\.Since in a simulation package`
		time.Until(t0) // want `time\.Until in a simulation package`
}

// Merge writes state that outlives the loop in map iteration order.
func (s *State) Merge(m map[uint64]uint64) {
	for _, v := range m {
		s.Total += v // want `map iteration order is nondeterministic and this loop body mutates shared state`
	}
}

// Keys builds output in map iteration order.
func Keys(m map[uint64]uint64) []uint64 {
	var out []uint64
	for k := range m {
		out = append(out, k) // want `map iteration order is nondeterministic and this loop body appends to output`
	}
	return out
}

// Drain iterates a sync.Map, whose Range order is as randomised as a
// plain map's and whose presence implies cross-goroutine sharing.
func Drain(m *sync.Map, s *State) {
	m.Range(func(k, v any) bool { // want `sync\.Map iteration order is nondeterministic in a simulation package`
		s.Total += v.(uint64)
		return true
	})
}

// Count is allowed: the loop only advances an iteration-local scalar,
// so the result is independent of iteration order.
func Count(m map[uint64]uint64) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// SumSlice is allowed: slices iterate in index order.
func SumSlice(vs []uint64, s *State) {
	for _, v := range vs {
		s.Total += v
	}
}
