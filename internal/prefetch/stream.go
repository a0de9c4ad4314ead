// Package prefetch implements the stream prefetcher of the paper's
// baseline system: it trains on L2 cache misses, tracks up to 16
// concurrent streams, and issues prefetches for the next lines of a
// detected stream into the L2 cache.
package prefetch

import (
	"fmt"
	"math/bits"
)

// Stats counts prefetcher activity.
type Stats struct {
	Misses    uint64 // training inputs observed
	Allocs    uint64 // detectors (re)allocated to new streams
	Activated uint64 // detectors that confirmed a direction
	Issued    uint64 // prefetch requests emitted
}

type detector struct {
	valid    bool
	active   bool  // direction confirmed
	lastLine int64 // line number (address >> log2(lineSize))
	dir      int64 // +1 or -1 once active
	lastUse  uint64
}

// Streamer is a multi-stream sequential prefetcher. It is driven with
// line-granularity miss addresses and yields line-granularity prefetch
// addresses; the hierarchy decides where to install them (the paper's
// configuration installs into the L2).
type Streamer struct {
	detectors []detector
	degree    int
	window    int64
	offBits   uint
	tick      uint64

	Stats Stats
}

// Config parameterises a Streamer. Zero values select the paper's
// baseline: 16 detectors, degree 2, a ±4-line training window.
type Config struct {
	Detectors int   // concurrent streams tracked (default 16)
	Degree    int   // lines prefetched ahead per confirmed miss (default 2)
	Window    int64 // training match window in lines (default 4)
	LineSize  int64 // bytes per line (default 64)
}

// New builds a stream prefetcher. Invalid explicit values are reported
// as errors; zero fields take defaults.
func New(cfg Config) (*Streamer, error) {
	if cfg.Detectors == 0 {
		cfg.Detectors = 16
	}
	if cfg.Degree == 0 {
		cfg.Degree = 2
	}
	if cfg.Window == 0 {
		cfg.Window = 4
	}
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.Detectors < 0 || cfg.Degree < 0 || cfg.Window < 0 {
		return nil, fmt.Errorf("prefetch: negative config %+v", cfg)
	}
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		return nil, fmt.Errorf("prefetch: line size %d not a power of two", cfg.LineSize)
	}
	return &Streamer{
		detectors: make([]detector, cfg.Detectors),
		degree:    cfg.Degree,
		window:    cfg.Window,
		offBits:   uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
	}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Streamer {
	s, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("prefetch: MustNew: %v", err))
	}
	return s
}

// OnMiss trains the prefetcher with a demand miss at addr and appends
// the line addresses to prefetch to buf, returning the extended slice.
// Reusing buf across calls keeps the hot path allocation-free.
func (s *Streamer) OnMiss(addr uint64, buf []uint64) []uint64 {
	s.Stats.Misses++
	s.tick++
	if len(s.detectors) == 0 {
		return buf
	}
	line := int64(addr >> s.offBits)

	// Find the detector whose stream this miss continues.
	best := -1
	for i := range s.detectors {
		d := &s.detectors[i]
		if !d.valid {
			continue
		}
		delta := line - d.lastLine
		if delta == 0 {
			// Same line missing again (e.g. evicted): just refresh.
			d.lastUse = s.tick
			return buf
		}
		if delta < 0 {
			delta = -delta
		}
		if delta <= s.window {
			best = i
			break
		}
	}
	if best < 0 {
		// Allocate the LRU detector for a fresh stream in training state.
		victim := 0
		for i := range s.detectors {
			if !s.detectors[i].valid {
				victim = i
				break
			}
			if s.detectors[i].lastUse < s.detectors[victim].lastUse {
				victim = i
			}
		}
		s.detectors[victim] = detector{valid: true, lastLine: line, lastUse: s.tick}
		s.Stats.Allocs++
		return buf
	}

	d := &s.detectors[best]
	d.lastUse = s.tick
	dir := int64(1)
	if line < d.lastLine {
		dir = -1
	}
	if !d.active {
		d.active = true
		d.dir = dir
		s.Stats.Activated++
	} else if d.dir != dir {
		// Direction flip: retrain.
		d.active = false
		d.lastLine = line
		return buf
	}
	d.lastLine = line
	// Clamp emission at both edges of the address space: below line 0
	// and above the last representable line, where the shift back to a
	// byte address would wrap and prefetch a bogus low address.
	maxLine := ^uint64(0) >> s.offBits
	for i := 1; i <= s.degree; i++ {
		next := line + d.dir*int64(i)
		if next < 0 || uint64(next) > maxLine {
			break
		}
		buf = append(buf, uint64(next)<<s.offBits)
		s.Stats.Issued++
	}
	return buf
}

// Reset clears all detectors and statistics.
func (s *Streamer) Reset() {
	for i := range s.detectors {
		s.detectors[i] = detector{}
	}
	s.tick = 0
	s.Stats = Stats{}
}
