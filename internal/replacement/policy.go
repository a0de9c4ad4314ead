// Package replacement implements the cache replacement policies used by
// the TLA cache-management study: true LRU (core caches), Not Recently
// Used (the paper's baseline LLC policy), Static RRIP (the "more
// intelligent replacement" the paper's footnote 4 verifies against),
// and the set-dueling DIP and DRRIP built on LRU and SRRIP.
//
// A Policy instance manages the replacement state for one cache (all of
// its sets). Policies are deliberately unaware of tags, validity, and
// inclusion; the cache layer handles those and calls into the policy on
// hits, fills, and victim selection. This separation is what lets Query
// Based Selection (QBS) re-run victim selection after promoting a way:
// for LRU, NRU and DIP, promoting a way (Touch) guarantees
// that an immediately following Victim call returns a different way
// (given at least two ways). SRRIP, and DRRIP with it, is the
// exception: when every line in a set is near-immediate, the aging scan
// can return the just-promoted way again — the hierarchy's QBS loop
// detects the fixed point and stops querying.
package replacement

import "fmt"

// Kind names a replacement policy implementation. Switches over Kind
// must name every policy (TestSwitchesAreExhaustive): a default arm
// is exactly how a newly added policy would be silently mis-handled
// by the String/New dispatch ladders. The values are part of the
// tlacached result-key format, which writes kinds numerically, so an
// existing kind never changes value.
type Kind int

const (
	// LRU is true least-recently-used replacement, kept as an exact
	// recency stack per set. The paper uses LRU in the L1 and L2 caches.
	LRU Kind = iota
	// NRU is Not Recently Used: one reference bit per line; victims are
	// chosen among lines with a cleared bit, and all bits (except the
	// newly touched line's) are cleared whenever every line in the set
	// has been referenced. The paper's baseline LLC policy.
	NRU
	// SRRIP is Static Re-Reference Interval Prediction with 2-bit RRPVs
	// (Jaleel et al., ISCA 2010), the "more intelligent" policy the
	// paper's footnote verifies the inclusion problem against.
	SRRIP
)

const (
	// DIP set-duels LRU against bimodal insertion (dynamic insertion).
	DIP Kind = 102
	// DRRIP set-duels SRRIP against bimodal RRIP.
	DRRIP Kind = 201
)

// String returns the conventional short name of the policy kind.
func (k Kind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case NRU:
		return "NRU"
	case SRRIP:
		return "SRRIP"
	case DIP:
		return "DIP"
	case DRRIP:
		return "DRRIP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Policy tracks replacement state for every set of one cache.
//
// Way indices passed to Touch/Insert/Demote must come from the cache
// layer (either a hit way or the way returned by Victim). Victim never
// inspects validity; the cache layer is expected to prefer invalid ways
// itself and only consult Victim when the set is full.
type Policy interface {
	// Touch records a reference to way (a cache hit or an explicit
	// promotion such as a temporal-locality hint or a QBS save).
	Touch(set, way int)
	// Insert records that a new line has been filled into way and
	// initialises its replacement state.
	Insert(set, way int)
	// Demote marks way as the prime eviction candidate of its set (used
	// when a line is known dead, e.g. an exclusive LLC invalidating on
	// hit, or an early core invalidation wanting the line gone next).
	Demote(set, way int)
	// Victim returns the way the policy would evict from set next.
	// Calling Victim repeatedly without intervening state changes
	// returns the same way.
	Victim(set int) int
	// WayRank returns way's eviction-preference rank for decision
	// tracing: 0 is the most protected way and larger values are closer
	// to eviction, so ordering candidates by descending rank reproduces
	// the policy's victim preference. The scale is policy-relative (an
	// LRU rank is a stack position, an SRRIP rank an RRPV), so ranks
	// compare within one cache, not across policies.
	WayRank(set, way int) uint8
	// ResetState returns the policy to its freshly constructed state in
	// place, so warmup resets and pooled reuse do not reallocate
	// replacement metadata. It must reset ALL adaptive state (recency
	// orders, reference bits, fill counters, set-dueling selectors).
	// TestResetStateEquivalence compares every implementation, reset
	// after a workload, with a fresh one by reflection.
	ResetState()
}

// New constructs a policy of the given kind for a cache with numSets
// sets of assoc ways. It panics if the geometry is not positive, as a
// misconfigured cache is a programming error.
func New(kind Kind, numSets, assoc int) Policy {
	if numSets <= 0 || assoc <= 0 {
		panic(fmt.Sprintf("replacement: invalid geometry %dx%d", numSets, assoc))
	}
	switch kind {
	case LRU:
		return newLRU(numSets, assoc)
	case NRU:
		return newNRU(numSets, assoc)
	case SRRIP:
		return newSRRIP(numSets, assoc)
	case DIP:
		return newDIP(numSets, assoc)
	case DRRIP:
		return newDRRIP(numSets, assoc)
	default:
		panic(fmt.Sprintf("replacement: unknown kind %d", int(kind)))
	}
}
