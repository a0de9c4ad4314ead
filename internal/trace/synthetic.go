package trace

import "fmt"

// Pattern selects the shape of a data-access component.
type Pattern uint8

const (
	// Stream walks its region with a fixed stride, wrapping at the
	// working-set boundary. A large working set with a small stride
	// models the no-reuse streaming of libquantum/wrf; a small one with
	// line-sized strides models array sweeps with heavy reuse.
	Stream Pattern = iota
	// Random touches a uniformly random 8-byte word in its region each
	// time, modelling hash tables and the pointer-heavy behaviour of
	// mcf/astar/xalancbmk at cache-line granularity.
	Random
)

// Component is one weighted data-access pattern within a synthetic
// workload. Each component owns a private address region so components
// never alias one another.
type Component struct {
	Weight  int     // relative selection weight, must be positive
	Pattern Pattern // Stream or Random
	WS      int64   // working-set size in bytes, must be positive
	Stride  int64   // Stream only: bytes between consecutive accesses
}

// Profile parameterises a synthetic workload: an instruction-fetch
// stream over a code footprint plus a weighted mixture of data
// components. Profiles for the 15 SPEC CPU2006 surrogates live in
// internal/workload; this package only provides the machinery.
type Profile struct {
	Name string
	// CodeBytes is the instruction footprint. The PC advances 4 bytes
	// per instruction and jumps to a random spot in the footprint on
	// average every BranchEvery instructions, so a footprint below the
	// L1I capacity yields a core-cache-fitting instruction stream.
	CodeBytes   int64
	BranchEvery int
	// MemPerMille is the number of instructions per thousand that carry
	// a data access; StorePerMille is the number of those accesses per
	// thousand that are stores. Fixed-point to keep profiles exactly
	// reproducible.
	MemPerMille   int
	StorePerMille int
	Components    []Component
}

// Validate reports the first problem with the profile, or nil.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("profile has no name")
	}
	if p.CodeBytes < instrBytes {
		return fmt.Errorf("profile %s: CodeBytes = %d, need at least one %d-byte instruction", p.Name, p.CodeBytes, instrBytes)
	}
	if p.BranchEvery <= 0 {
		return fmt.Errorf("profile %s: BranchEvery = %d", p.Name, p.BranchEvery)
	}
	if p.MemPerMille < 0 || p.MemPerMille > 1000 {
		return fmt.Errorf("profile %s: MemPerMille = %d", p.Name, p.MemPerMille)
	}
	if p.StorePerMille < 0 || p.StorePerMille > 1000 {
		return fmt.Errorf("profile %s: StorePerMille = %d", p.Name, p.StorePerMille)
	}
	if p.MemPerMille > 0 && len(p.Components) == 0 {
		return fmt.Errorf("profile %s: memory accesses but no components", p.Name)
	}
	for i, c := range p.Components {
		if c.Weight <= 0 {
			return fmt.Errorf("profile %s component %d: weight %d", p.Name, i, c.Weight)
		}
		if c.WS <= 0 {
			return fmt.Errorf("profile %s component %d: WS %d", p.Name, i, c.WS)
		}
		if c.Pattern == Random && c.WS < wordAlign {
			return fmt.Errorf("profile %s component %d: random WS %d below word size %d", p.Name, i, c.WS, wordAlign)
		}
		if c.Pattern == Stream && c.Stride <= 0 {
			return fmt.Errorf("profile %s component %d: stream stride %d", p.Name, i, c.Stride)
		}
		if c.WS > componentSpan-int64(skewRange) {
			return fmt.Errorf("profile %s component %d: WS %d exceeds region span", p.Name, i, c.WS)
		}
	}
	return nil
}

const (
	codeBase      = uint64(0x0040_0000)      // where the code footprint starts
	dataBase      = uint64(0x1000_0000_0000) // first data component region
	componentSpan = int64(1) << 36           // address space per component
	instrBytes    = 4                        // PC advance per instruction
	wordAlign     = 8                        // data access alignment
	// skewRange bounds the per-region placement skew (below). Region
	// bases are offset by a seed-derived, line-aligned amount so that
	// different regions — and different generator instances of the same
	// profile — do not all start at cache-set zero. Real processes get
	// this decorrelation for free from physical page allocation;
	// without it, multi-core mixes alias every hot working set onto the
	// same cache sets.
	skewRange = uint64(1) << 21 // 2MB: wider than any simulated cache's set span
)

// skew derives a deterministic line-aligned placement offset for region
// i of a generator seeded with seed.
func skew(seed uint64, i int) uint64 {
	r := rng{state: seed ^ uint64(i)*0xa0761d6478bd642f}
	return r.next() % skewRange &^ 63
}

// Synthetic generates the stream described by a Profile. It implements
// Generator and is deterministic for a given (profile, seed) pair.
type Synthetic struct {
	prof        Profile
	seed        uint64
	rng         rng
	pc          uint64
	codeStart   uint64
	totalWeight uint64
	cursors     []int64  // per-component stream cursor
	bases       []uint64 // per-component skewed region base
	// comp maps a weight draw in [0, totalWeight) directly to its
	// component index — the same mapping the cumulative-weight scan in
	// pickComponent computes, precomputed so the per-access path is one
	// table load. Nil when the table would be degenerate (single
	// component) or too large (see maxCompTable).
	comp []uint16

	// Precomputed magic divisors for every bounded draw in Next, so the
	// per-instruction path performs no hardware divides. Reductions are
	// bit-identical to %, leaving generated streams unchanged.
	branchDiv divisor   // BranchEvery
	codeDiv   divisor   // CodeBytes / instrBytes
	weightDiv divisor   // totalWeight
	wordDivs  []divisor // per-component WS / wordAlign (Random pattern)
}

// NewSynthetic builds a generator for prof seeded with seed. Invalid
// profiles return an error rather than producing garbage streams.
func NewSynthetic(prof Profile, seed uint64) (*Synthetic, error) {
	g := &Synthetic{}
	if err := g.Reinit(prof, seed); err != nil {
		return nil, err
	}
	return g, nil
}

// Reinit reconfigures the generator in place for (prof, seed), reusing
// its slice capacity, and rewinds it. A reinitialised generator is
// bit-identical to NewSynthetic(prof, seed) — every field, including
// the seed-derived region skews and magic divisors, is recomputed from
// the arguments, so generator pooling (internal/sim) can hand any
// pooled instance to any run without staleness risk.
// TestReinitMatchesNewSynthetic checks the "every field" claim by
// reflection.
func (g *Synthetic) Reinit(prof Profile, seed uint64) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	g.prof = prof
	g.seed = seed
	g.totalWeight = 0
	for _, c := range prof.Components {
		g.totalWeight += uint64(c.Weight)
	}
	n := len(prof.Components)
	if cap(g.cursors) < n {
		g.cursors = make([]int64, n)
	} else {
		g.cursors = g.cursors[:n]
	}
	if cap(g.bases) < n {
		g.bases = make([]uint64, n)
	} else {
		g.bases = g.bases[:n]
	}
	if cap(g.wordDivs) < n {
		g.wordDivs = make([]divisor, n)
	} else {
		g.wordDivs = g.wordDivs[:n]
	}
	g.codeStart = codeBase + skew(seed, n)
	for i := range g.bases {
		g.bases[i] = dataBase + uint64(i)*uint64(componentSpan) + skew(seed, i)
		if prof.Components[i].Pattern == Random {
			g.wordDivs[i] = newDivisor(uint64(prof.Components[i].WS) / wordAlign)
		} else {
			// A fresh generator's Stream components hold the zero divisor;
			// clear any residue from a previous profile.
			g.wordDivs[i] = divisor{}
		}
	}
	g.branchDiv = newDivisor(uint64(prof.BranchEvery))
	g.codeDiv = newDivisor(uint64(prof.CodeBytes) / instrBytes)
	g.weightDiv = divisor{}
	if g.totalWeight > 0 {
		g.weightDiv = newDivisor(g.totalWeight)
	}
	if n > 1 && g.totalWeight <= maxCompTable {
		if cap(g.comp) < int(g.totalWeight) {
			g.comp = make([]uint16, g.totalWeight)
		} else {
			g.comp = g.comp[:g.totalWeight]
		}
		k := 0
		for i, c := range prof.Components {
			for j := 0; j < c.Weight; j++ {
				g.comp[k] = uint16(i)
				k++
			}
		}
	} else {
		g.comp = nil
	}
	g.Reset()
	return nil
}

// maxCompTable bounds the draw-to-component table: profile weights are
// per-ten-thousandths (total 10000), so the bound is never hit by the
// registered suite; a hand-built profile with enormous weights just
// falls back to the scan.
const maxCompTable = 1 << 16

// CodeStart returns the (skewed) base of the instruction footprint.
func (g *Synthetic) CodeStart() uint64 { return g.codeStart }

// ComponentBase returns the (skewed) base of data component i.
func (g *Synthetic) ComponentBase(i int) uint64 { return g.bases[i] }

// MustSynthetic is NewSynthetic for profiles known to be valid.
func MustSynthetic(prof Profile, seed uint64) *Synthetic {
	g, err := NewSynthetic(prof, seed)
	if err != nil {
		panic(fmt.Sprintf("trace: MustSynthetic: %v", err))
	}
	return g
}

// Name returns the profile name.
func (g *Synthetic) Name() string { return g.prof.Name }

// Reset rewinds the stream.
func (g *Synthetic) Reset() {
	g.rng = rng{state: g.seed}
	g.pc = g.codeStart
	for i := range g.cursors {
		g.cursors[i] = 0
	}
}

// Next generates the next instruction. Every bounded draw goes through
// a precomputed divisor (bit-identical to the % it replaces), keeping
// the per-instruction path free of hardware divides.
func (g *Synthetic) Next(in *Instr) {
	// Work on register-local copies of the generator's hot state. The
	// RNG is SplitMix64: every draw adds a constant to the state and
	// mixes the sum, so each draw needs the state the previous one left.
	// When it lives in g.rng every draw round-trips through memory (the
	// compiler cannot keep it in a register across the call because g
	// aliases the receiver of the inlined rng methods). Draw order and
	// values are untouched — only where the state lives between draws
	// changes.
	r := g.rng
	pc := g.pc
	in.PC = pc
	// Advance the PC: mostly sequential, occasionally a taken branch to
	// a random instruction within the code footprint.
	if r.belowDiv(&g.branchDiv) == 0 {
		pc = g.codeStart + r.belowDiv(&g.codeDiv)*instrBytes
	} else {
		pc += instrBytes
		if pc >= g.codeStart+uint64(g.prof.CodeBytes) {
			pc = g.codeStart
		}
	}
	g.pc = pc

	if !r.perMille(uint64(g.prof.MemPerMille)) {
		in.Op, in.Addr = OpNone, 0
		g.rng = r
		return
	}
	if r.perMille(uint64(g.prof.StorePerMille)) {
		in.Op = OpStore
	} else {
		in.Op = OpLoad
	}
	in.Addr = g.dataAddr(&r, g.pickComponent(&r))
	g.rng = r
}

// pickComponent selects a component index by weight, drawing from r.
func (g *Synthetic) pickComponent(r *rng) int {
	if len(g.prof.Components) == 1 {
		return 0
	}
	n := r.belowDiv(&g.weightDiv)
	if g.comp != nil {
		return int(g.comp[n])
	}
	for i, c := range g.prof.Components {
		if n < uint64(c.Weight) {
			return i
		}
		n -= uint64(c.Weight)
	}
	return len(g.prof.Components) - 1
}

// dataAddr produces the next address for component i, drawing from r.
func (g *Synthetic) dataAddr(r *rng, i int) uint64 {
	c := &g.prof.Components[i]
	base := g.bases[i]
	switch c.Pattern {
	case Stream:
		off := g.cursors[i]
		g.cursors[i] += c.Stride
		if g.cursors[i] >= c.WS {
			g.cursors[i] = 0
		}
		return base + uint64(off)
	default: // Random
		return base + r.belowDiv(&g.wordDivs[i])*wordAlign
	}
}
