// Package runner is a golden fixture for the lockdiscipline analyzer.
// Its import path ends in "runner", placing it inside the analyzer's
// scope. Reporter mirrors the real runner's mutex-owning progress
// reporter.
package runner

import (
	"sync"
	"sync/atomic"
)

// Reporter owns mu, which guards done and ch.
type Reporter struct {
	mu   sync.Mutex
	done int
	n    uint64
	ch   chan int
}

// Good shows the accepted shape: lock, write, unlock.
func (r *Reporter) Good() {
	r.mu.Lock()
	r.done++
	r.mu.Unlock()
}

// DeferGood holds the lock to the end of the method.
func (r *Reporter) DeferGood() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done++
}

// AtomicGood needs no lock: the write goes through sync/atomic.
func (r *Reporter) AtomicGood() {
	atomic.AddUint64(&r.n, 1)
}

// Bad writes a guarded field without taking the lock.
func (r *Reporter) Bad() {
	r.done = 7 // want `write to Reporter\.done without holding r\.mu`
}

// Incr increments without the lock.
func (r *Reporter) Incr() {
	r.done++ // want `write to Reporter\.done without holding r\.mu`
}

// UnlockThenWrite releases the lock before the second write.
func (r *Reporter) UnlockThenWrite() {
	r.mu.Lock()
	r.done++
	r.mu.Unlock()
	r.done++ // want `write to Reporter\.done without holding r\.mu`
}

// SendUnderLock performs a channel send inside the critical section.
func (r *Reporter) SendUnderLock(v int) {
	r.mu.Lock()
	r.ch <- v // want `channel send while r\.mu is held`
	r.mu.Unlock()
}
