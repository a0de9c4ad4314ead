// Package cpu provides the analytic out-of-order core timing model the
// simulator uses in place of the paper's detailed 4-wide, 128-entry-ROB
// x86 cores. The model is deterministic and intentionally simple:
//
//   - Instructions issue at Width per cycle.
//   - Instruction-fetch misses stall the front end for their full
//     latency (the pipeline has nothing to execute).
//   - Loads and stores that miss the L1 enter an in-order pending queue
//     (the reorder buffer's view of outstanding memory operations) and
//     complete after their access latency; younger instructions keep
//     issuing — memory-level parallelism — until either the ROB window
//     (ROB instructions) or the MSHR count (MSHRs outstanding misses)
//     is exhausted, at which point time jumps to the oldest completion.
//
// The paper notes its policies "perform well for different latencies
// including pure functional cache simulation", so this level of timing
// fidelity is sufficient to rank policies and expose effects such as
// instruction-fetch misses hurting more than data misses (QBS-IL1 vs
// QBS-DL1 in Figure 7).
package cpu

import "fmt"

// Config sizes the core model. The zero value is invalid; use Default
// for the paper's baseline core.
type Config struct {
	Width int // issue/retire width, instructions per cycle
	ROB   int // reorder-buffer window, instructions
	MSHRs int // maximum outstanding misses
}

// Default returns the paper's baseline core: 4-wide, 128-entry ROB,
// 32 outstanding misses.
func Default() Config { return Config{Width: 4, ROB: 128, MSHRs: 32} }

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 {
		return fmt.Errorf("cpu: width %d must be positive", c.Width)
	}
	if c.ROB <= 0 {
		return fmt.Errorf("cpu: ROB %d must be positive", c.ROB)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cpu: MSHRs %d must be positive", c.MSHRs)
	}
	return nil
}

// Stats summarises a core's execution.
type Stats struct {
	Instructions uint64
	FetchStalls  uint64 // cycles lost to instruction-fetch misses
	WindowStalls uint64 // cycles lost waiting on ROB/MSHR-limited misses
}

type pending struct {
	seq      uint64 // instruction sequence number of the access
	complete uint64 // cycle at which the miss resolves
}

// Core models one processor core's timing. Not safe for concurrent use.
type Core struct {
	cfg   Config
	cycle uint64
	sub   int // instructions issued in the current cycle
	seq   uint64

	// queue is a FIFO ring of outstanding memory operations, oldest
	// first (program order == allocation order, as in a ROB).
	queue []pending
	head  int
	count int

	Stats Stats
}

// New builds a core. Configuration errors are returned, not deferred.
func New(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Core{cfg: cfg, queue: make([]pending, cfg.MSHRs)}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Core {
	c, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("cpu: MustNew: %v", err))
	}
	return c
}

// Cycle returns the core's current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// advance moves the core's clock forward to at least cycle, crediting
// the jump to the given stall counter.
func (c *Core) advance(to uint64, stall *uint64) {
	if to > c.cycle {
		*stall += to - c.cycle
		c.cycle = to
		c.sub = 0
	}
}

// drain retires every pending access that has completed.
func (c *Core) drain() {
	for c.count > 0 && c.queue[c.head].complete <= c.cycle {
		c.pop()
	}
}

func (c *Core) pop() {
	c.head++
	if c.head == len(c.queue) {
		c.head = 0
	}
	c.count--
}

func (c *Core) push(p pending) {
	i := c.head + c.count
	if i >= len(c.queue) {
		i -= len(c.queue)
	}
	c.queue[i] = p
	c.count++
}

// Instr commits one instruction. fetchLatency is the instruction-fetch
// access latency in cycles; a value above hitLatency (the L1I load-to-use
// latency) stalls the front end for the excess. When the instruction
// carries a data access, memLatency is its latency (0 for none); data
// accesses with latency above hitLatency become outstanding misses.
func (c *Core) Instr(fetchLatency, memLatency, hitLatency uint64) {
	c.seq++
	c.Stats.Instructions++

	// Issue-slot accounting: Width instructions per cycle.
	c.sub++
	if c.sub >= c.cfg.Width {
		c.cycle++
		c.sub = 0
	}
	c.drain()

	// Front-end: an instruction-fetch miss starves the pipeline.
	if fetchLatency > hitLatency {
		c.advance(c.cycle+(fetchLatency-hitLatency), &c.Stats.FetchStalls)
		c.drain()
	}

	if memLatency <= hitLatency {
		return // L1 data hit (or no access): fully pipelined
	}

	// ROB window limit: if the oldest outstanding miss left the window,
	// issue cannot proceed until it completes.
	for c.count > 0 && c.seq-c.queue[c.head].seq >= uint64(c.cfg.ROB) {
		c.advance(c.queue[c.head].complete, &c.Stats.WindowStalls)
		c.drain()
	}
	// MSHR limit: no free miss slot means waiting for the oldest.
	if c.count == len(c.queue) {
		c.advance(c.queue[c.head].complete, &c.Stats.WindowStalls)
		c.drain()
		if c.count == len(c.queue) {
			// The oldest completion did not free a slot (identical
			// completion times were already drained); force one out.
			c.advance(c.queue[c.head].complete, &c.Stats.WindowStalls)
			c.pop()
		}
	}
	c.push(pending{seq: c.seq, complete: c.cycle + memLatency})
}

// Finish drains all outstanding misses and returns the final cycle
// count. Call once, after the last Instr.
func (c *Core) Finish() uint64 {
	for c.count > 0 {
		c.advance(c.queue[c.head].complete, &c.Stats.WindowStalls)
		c.drain()
	}
	return c.cycle
}

// IPC returns instructions per cycle so far (0 when no cycles elapsed).
func (c *Core) IPC() float64 {
	if c.cycle == 0 {
		return 0
	}
	return float64(c.Stats.Instructions) / float64(c.cycle)
}

// Reset returns the core to the state New built.
func (c *Core) Reset() {
	c.cycle, c.sub, c.seq = 0, 0, 0
	clear(c.queue)
	c.head, c.count = 0, 0
	c.Stats = Stats{}
}
