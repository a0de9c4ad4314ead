package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"tlacache/internal/sim"
)

// KeyVersion is the canonical-form schema version. It prefixes both
// the hashed byte string and the returned key, so any change to the
// canonical field set or encoding must bump it — which invalidates
// every existing cache entry loudly (keys stop matching) instead of
// silently serving results computed under a different schema.
const KeyVersion = "v1"

// Key returns the content-address of one simulation request: the
// KeyVersion prefix plus the hex SHA-256 of the canonical form of
// (machine config, workload, policy, seed). Two requests share a key
// iff the simulator's determinism contract guarantees them identical
// results, so a cached manifest may be served for either.
//
// cfg must be the fully resolved sim.Config (policy already applied to
// the hierarchy); apps is the resolved per-core benchmark list. The
// observer field of sim.Config (Telemetry) is deliberately excluded: it
// never changes simulation results, only what is recorded about them.
// TestKeyCoversConfig changes every leaf of sim.Config in turn and
// requires the key to change unless the field is on its exempt list,
// so a new config field cannot creep in unhashed.
func Key(cfg sim.Config, apps []string, policy string, seed uint64) string {
	sum := sha256.Sum256([]byte(canonical(cfg, apps, policy, seed)))
	return KeyVersion + ":" + hex.EncodeToString(sum[:])
}

// ValidKey reports whether key has the exact canonical form Key
// produces: the KeyVersion prefix, a colon, and 64 lowercase hex
// digits. The HTTP layer gates every client-supplied key on this
// before any cache access — Go's ServeMux unescapes path wildcards,
// so without the gate a segment like "..%2F..%2Fetc%2Fpasswd" would
// reach the disk tier as a relative path.
func ValidKey(key string) bool {
	const hexLen = sha256.Size * 2
	prefix := KeyVersion + ":"
	if len(key) != len(prefix)+hexLen || key[:len(prefix)] != prefix {
		return false
	}
	for i := len(prefix); i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// canonical renders the request in the fixed field order the key
// hashes. Every value is written explicitly — no struct marshalling —
// so field reordering in the config types cannot reorder the hash
// input, and enum values are written numerically so renaming a
// String() form cannot shift keys. TestKeyCoversConfig checks that
// every field of sim.Config is written here or exempted by name;
// TestKeyGolden and TestKeyCanonicalGolden pin the bytes.
func canonical(cfg sim.Config, apps []string, policy string, seed uint64) string {
	var b strings.Builder
	h := cfg.Hierarchy
	fmt.Fprintf(&b, "%s|apps=%s|policy=%s|seed=%d", KeyVersion, strings.Join(apps, ","), policy, seed)
	fmt.Fprintf(&b, "|instr=%d|warmup=%d", cfg.Instructions, cfg.Warmup)
	fmt.Fprintf(&b, "|cores=%d|line=%d", h.Cores, h.LineSize)
	fmt.Fprintf(&b, "|l1i=%d/%d|l1d=%d/%d|l2=%d/%d|llc=%d/%d",
		h.L1ISize, h.L1IAssoc, h.L1DSize, h.L1DAssoc, h.L2Size, h.L2Assoc, h.LLCSize, h.LLCAssoc)
	fmt.Fprintf(&b, "|pol=%d,%d,%d|incl=%d|tla=%d",
		h.L1Policy, h.L2Policy, h.LLCPolicy, h.Inclusion, h.TLA)
	fmt.Fprintf(&b, "|tlh=%d/%d|qbs=%d/%d/%t",
		h.TLHSources, h.TLHPerMille, h.QBSProbe, h.QBSMaxQueries, h.QBSEvictSaved)
	fmt.Fprintf(&b, "|l2incl=%t/%t", h.L2Inclusive, h.L2QBS)
	fmt.Fprintf(&b, "|pf=%t/%d/%d/%d/%d", h.EnablePrefetch,
		h.PrefetchConfig.Detectors, h.PrefetchConfig.Degree, h.PrefetchConfig.Window, h.PrefetchConfig.LineSize)
	fmt.Fprintf(&b, "|vc=%d|bcast=%t|banks=%d/%d",
		h.VictimCacheEntries, h.BroadcastInvalidate, h.LLCBanks, h.BankOccupancy)
	fmt.Fprintf(&b, "|lat=%d,%d,%d,%d",
		h.Latency.L1, h.Latency.L2, h.Latency.LLC, h.Latency.Memory)
	fmt.Fprintf(&b, "|cpu=%d/%d/%d", cfg.CPU.Width, cfg.CPU.ROB, cfg.CPU.MSHRs)
	return b.String()
}
