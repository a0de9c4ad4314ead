package statecheck

import "runtime"

// Allocs runs f once and returns the exact number of heap allocations
// it made and the bytes they requested, read from the runtime's
// cumulative malloc counters before and after the call. f runs at
// GOMAXPROCS 1, as under testing.AllocsPerRun, so other goroutines
// interleave with it instead of running beside it.
//
// The counts are not divided by anything. testing.AllocsPerRun and
// -benchmem report a mean truncated to an integer, so a slice or map
// that grows once in many runs reads as zero allocations per run; a
// test that measures one long window with Allocs sees that growth. The
// counters are process-wide, so the caller must not run in parallel
// with other tests.
func Allocs(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
