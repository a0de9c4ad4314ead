package statecheck

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
)

// AllocCount is what Allocs counted: the heap allocations of the code
// under test, the bytes they requested, and one line per allocation
// site (count, bytes and call stack, innermost frame first), so a
// failing window names what allocated.
type AllocCount struct {
	Mallocs, Bytes uint64
	Sites          []string
}

// String renders the count and its sites for a test failure.
func (c AllocCount) String() string {
	return fmt.Sprintf("%d heap allocations (%d B)%s", c.Mallocs, c.Bytes, strings.Join(append([]string{""}, c.Sites...), "\n\t"))
}

// Allocs runs f once and returns the heap allocations the code under
// test made while it ran, and the bytes they requested. The code under
// test is f and every goroutine this module starts: an allocation
// counts when its stack passes through f or its goroutine began in this
// module. The runtime's own goroutines (the scavenger, the unique-map
// cleanup after a collection) and the testing framework's are not the
// code under test, yet at GOMAXPROCS 1 they interleave with f and
// allocate now and then. A process-wide malloc counter cannot tell
// their allocations from f's; the memory profile can, because
// runtime.MemProfileRate is 1 while f runs, so every allocation is
// recorded with its stack. The one exception is a tiny object (under 16
// bytes, no pointers): tiny objects share 16-byte blocks, and the
// profile records each new block rather than each object. A collection
// empties the current block just before f runs, so f's first tiny
// object starts a block and is counted, though a count of many tiny
// objects reads low.
//
// The counts are not divided by anything. testing.AllocsPerRun and
// -benchmem report a mean truncated to an integer, so a slice or map
// that grows once in many runs reads as zero allocations per run; a
// test that measures one long window with Allocs sees that growth. The
// profile is process-wide, so the caller must not run in parallel with
// other tests.
func Allocs(f func()) AllocCount {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	fn := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
	before := allocSites()
	var start, end runtime.MemStats
	runtime.ReadMemStats(&start)
	f()
	runtime.ReadMemStats(&end)
	var c AllocCount
	if end.Mallocs == start.Mallocs {
		return c // nothing at all allocated
	}
	for stk, after := range allocSites() {
		n := after.sub(before[stk])
		if n.objects == 0 || !underTest(stk, fn) {
			continue
		}
		c.Mallocs += uint64(n.objects)
		c.Bytes += uint64(n.bytes)
		c.Sites = append(c.Sites, fmt.Sprintf("%d allocations (%d B) at %s", n.objects, n.bytes, stackString(stk)))
	}
	slices.Sort(c.Sites)
	return c
}

// siteCount is a memory profile record's cumulative allocations.
type siteCount struct{ objects, bytes int64 }

func (a siteCount) sub(b siteCount) siteCount {
	return siteCount{a.objects - b.objects, a.bytes - b.bytes}
}

// allocSites returns the memory profile's cumulative allocations by
// stack, after a garbage collection publishes every allocation made so
// far.
func allocSites() map[[32]uintptr]siteCount {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, _ := runtime.MemProfile(nil, true); ; {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	sites := make(map[[32]uintptr]siteCount, len(recs))
	for _, r := range recs {
		s := sites[r.Stack0]
		sites[r.Stack0] = siteCount{s.objects + r.AllocObjects, s.bytes + r.AllocBytes}
	}
	return sites
}

// module is this module's path, read off this package's own
// (<module>/internal/statecheck).
var module = strings.TrimSuffix(reflect.TypeFor[siteCount]().PkgPath(), "/internal/statecheck")

// underTest reports whether an allocation with stack stk belongs to the
// code under test: the stack passes through fn, its goroutine began in
// this module, or the profile cut the stack short, so neither is known.
func underTest(stk [32]uintptr, fn string) bool {
	if stk[len(stk)-1] != 0 {
		return true
	}
	outer := ""
	frames := runtime.CallersFrames((&runtime.MemProfileRecord{Stack0: stk}).Stack())
	for {
		fr, more := frames.Next()
		if fr.Function == fn {
			return true
		}
		if fr.Function != "runtime.goexit" {
			outer = fr.Function
		}
		if !more {
			return strings.HasPrefix(outer, module+"/") || strings.HasPrefix(outer, module+".")
		}
	}
}

// stackString renders a profile stack as "fn (file:line) < caller …".
func stackString(stk [32]uintptr) string {
	var b strings.Builder
	frames := runtime.CallersFrames((&runtime.MemProfileRecord{Stack0: stk}).Stack())
	for {
		fr, more := frames.Next()
		if b.Len() > 0 {
			b.WriteString(" < ")
		}
		fmt.Fprintf(&b, "%s (%s:%d)", fr.Function, fr.File, fr.Line)
		if !more {
			return b.String()
		}
	}
}
