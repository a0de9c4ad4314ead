package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"unsafe"

	"tlacache/internal/trace"
)

// Pipelined trace generation. A stream is a pure function of its inputs
// and never reads simulator state, so each run produces its streams
// ahead of the simulation on a goroutine of its own, the way the paper's
// Pin front end feeds CMP$im. The producer fills per-core rings of
// instruction blocks; the run loop reads them in order. Each core's
// stream is advanced only by the producer and read only in FIFO block
// order, so the instructions a core sees are exactly those a direct
// Next call per instruction would yield.
//
// Three choices carry the speedup (DESIGN.md §10):
//   - the producer gets slack: each core's ring holds feedDepth blocks
//     and drained blocks go back feedDepth/2 at a time, so a parked
//     producer is woken rarely and has a batch to fill when it is;
//   - the ring memory is one fixed budget per run (feedBytes), split
//     across the cores and recycled through a bounded free list;
//   - short runs do not pay for read-ahead: each core's first fill of a
//     run is feedFirst instructions, made on the run's own goroutine,
//     and the producer starts only once a core has drained it; later
//     fills double up to the block size. A run of a few instructions
//     never starts the producer at all.

const (
	// feedBytes is one run's ring memory, split evenly across its cores.
	// The interleave round-robins the cores, so a per-core ring that
	// shrinks with the core count drains in the same wall time.
	feedBytes = 256 << 10
	// feedDepth is the number of blocks in each core's ring.
	feedDepth = 4
	// feedFirst is each core's first fill in a run, in instructions.
	feedFirst = 32
	// instrSize is the ring footprint of one instruction.
	instrSize = int(unsafe.Sizeof(trace.Instr{}))
)

// block is one fill of one core's stream.
type block struct {
	core int
	mem  []trace.Instr // full-size backing, fixed at construction
	buf  []trace.Instr // the filled prefix of mem
}

// coreFeed is the run loop's view of one core's ring: the block being
// read, the read position, and the drained blocks not yet handed back.
type coreFeed struct {
	cur      *block
	pos      int
	drained  [feedDepth / 2]*block
	nDrained int
	full     chan *block
}

// feeder is one run's producer and rings. Between runs it is idle and
// pooled; start and releaseFeeder bracket each run.
type feeder struct {
	blocks []block
	cores  []coreFeed
	// free carries drained blocks to the producer. Its capacity leaves
	// room for every block plus the stop sentinel, so no send blocks.
	free chan *block

	// Producer-owned while a run is live.
	streams []trace.Generator
	size    []int // each core's next fill size

	names []string // stream names, read before the producer starts
	live  bool     // the producer has started
	halt  atomic.Bool
	done  sync.WaitGroup
	// fault describes a panic in a stream's Next; it is written before
	// the nil sentinels that announce it, so readers that received one
	// see it.
	fault string
}

// newFeeder builds the rings of an n-core run.
func newFeeder(n int) *feeder {
	blockLen := max(feedBytes/(n*feedDepth*instrSize), 1)
	mem := make([]trace.Instr, n*feedDepth*blockLen)
	f := &feeder{
		blocks:  make([]block, n*feedDepth),
		cores:   make([]coreFeed, n),
		free:    make(chan *block, n*feedDepth+1),
		streams: make([]trace.Generator, n),
		size:    make([]int, n),
		names:   make([]string, n),
	}
	for i := range f.blocks {
		f.blocks[i] = block{core: i % n, mem: mem[i*blockLen : (i+1)*blockLen : (i+1)*blockLen]}
	}
	for c := range f.cores {
		// One slot beyond the ring for the fault sentinel.
		f.cores[c].full = make(chan *block, feedDepth+1)
	}
	return f
}

// start fills each core's first block from streams and queues the rest
// of the rings for the producer, which advance launches once a core
// needs its second block. From then until releaseFeeder has joined it,
// the producer alone calls the streams' methods.
func (f *feeder) start(streams []trace.Generator) {
	for len(f.free) > 0 {
		<-f.free
	}
	for c := range f.cores {
		cf := &f.cores[c]
		for len(cf.full) > 0 {
			<-cf.full
		}
		f.streams[c] = streams[c]
		f.names[c] = streams[c].Name()
		f.size[c] = min(feedFirst, len(f.blocks[c].mem))
		b := &f.blocks[c]
		f.fill(b)
		*cf = coreFeed{cur: b, full: cf.full}
	}
	// The other blocks are queued core-interleaved, so every core's
	// second fill comes before any core's third.
	for i := len(f.cores); i < len(f.blocks); i++ {
		f.free <- &f.blocks[i]
	}
	f.live = false
}

// launch starts the producer goroutine.
func (f *feeder) launch() {
	f.live = true
	f.halt.Store(false)
	f.fault = ""
	f.done.Add(1)
	go f.produce()
}

// produce fills blocks as the run loop hands them back, until stopped.
// A panic in a stream is recorded and announced to every core with a
// nil block, so the run loop re-raises it on its own goroutine instead
// of the producer's panic killing the process.
func (f *feeder) produce() {
	defer f.done.Done()
	core := -1
	defer func() {
		if r := recover(); r != nil {
			f.fault = fmt.Sprintf("stream %d (%s) panicked: %v\n%s", core, f.names[core], r, debug.Stack())
			for c := range f.cores {
				f.cores[c].full <- nil
			}
		}
	}()
	for {
		b := <-f.free
		if b == nil || f.halt.Load() {
			return
		}
		core = b.core
		f.fill(b)
		// Never blocks: a core's channel holds its whole ring plus the
		// fault sentinel.
		f.cores[b.core].full <- b
	}
}

// fill writes the next instructions of b's core into b, shifted into
// the core's private address space.
func (f *feeder) fill(b *block) {
	c := b.core
	n := f.size[c]
	f.size[c] = min(2*n, len(b.mem))
	b.buf = b.mem[:n]
	g, off := f.streams[c], uint64(c)*coreSpacing
	for i := range b.buf {
		g.Next(&b.buf[i])
		shift(&b.buf[i], off)
	}
}

// advance hands core c's drained block back — feedDepth/2 at a time —
// and returns the core's next filled block, waiting for the producer
// when the ring is empty.
func (f *feeder) advance(c int) []trace.Instr {
	if !f.live {
		f.launch()
	}
	cf := &f.cores[c]
	cf.drained[cf.nDrained] = cf.cur
	cf.nDrained++
	if cf.nDrained == len(cf.drained) {
		for _, b := range cf.drained {
			f.free <- b
		}
		cf.nDrained = 0
	}
	b := <-cf.full
	if b == nil {
		panic("sim: " + f.fault)
	}
	cf.cur = b
	return b.buf
}

var feedPool = struct {
	sync.Mutex
	free map[int][]*feeder
}{free: map[int][]*feeder{}}

// acquireFeeder returns an idle feeder for an n-core run, building one
// only when the free list is empty.
func acquireFeeder(n int) *feeder {
	feedPool.Lock()
	if s := feedPool.free[n]; len(s) > 0 {
		f := s[len(s)-1]
		s[len(s)-1] = nil
		feedPool.free[n] = s[:len(s)-1]
		feedPool.Unlock()
		return f
	}
	feedPool.Unlock()
	return newFeeder(n)
}

// releaseFeeder stops f's producer, if it started, waits for it to
// exit, and returns f to the free list. Every run releases, failed and
// panicking ones included — even after the producer itself panicked:
// once the producer has exited the rings hold no state that start does
// not rewind.
func releaseFeeder(f *feeder) {
	if f.live {
		f.halt.Store(true)
		f.free <- nil // wakes a producer parked on an empty free list
		f.done.Wait()
	}
	clear(f.streams)
	n := len(f.cores)
	feedPool.Lock()
	if s := feedPool.free[n]; len(s) < maxFree {
		feedPool.free[n] = append(s, f)
	}
	feedPool.Unlock()
}
