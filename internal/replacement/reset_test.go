package replacement

import (
	"reflect"
	"testing"
)

// exercise drives p through a deterministic mixed workload (inserts,
// touches, demotes, victim picks) covering enough sets to hit DIP/DRRIP
// leader and follower sets and to advance their bimodal fill counters;
// the closing fills into set 0, a base-policy leader, leave their
// selector off its midpoint. It returns the victim picks so callers can
// compare behaviour between instances.
func exercise(p Policy, numSets, assoc int) []int {
	picks := make([]int, 0, 4*numSets)
	state := uint64(0x243f6a8885a308d3)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for round := 0; round < 4; round++ {
		for set := 0; set < numSets; set++ {
			w := p.Victim(set)
			picks = append(picks, w)
			p.Insert(set, w)
			p.Touch(set, next(assoc))
			if next(3) == 0 {
				p.Demote(set, next(assoc))
			}
			picks = append(picks, p.Victim(set))
		}
	}
	for i := 0; i < 3; i++ {
		w := p.Victim(0)
		picks = append(picks, w)
		p.Insert(0, w)
	}
	return picks
}

// TestResetStateEquivalence proves ResetState returns every policy to
// its freshly constructed state: after a workload and a reset the
// policy must be reflect.DeepEqual to a fresh construction, and the
// same workload replayed on both must produce the identical victim
// sequence. Pooled hierarchies reuse policies across runs through
// exactly this path, so any stale rank state, fill counter, or
// set-dueling selector here would silently skew reused-run results.
func TestResetStateEquivalence(t *testing.T) {
	const numSets, assoc = 64, 8
	for _, k := range allKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			reused := New(k, numSets, assoc)
			exercise(reused, numSets, assoc) // dirty every piece of state
			reused.ResetState()

			fresh := New(k, numSets, assoc)
			if !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("reset policy differs from a fresh one:\nreset %+v\nfresh %+v", reused, fresh)
			}
			got := exercise(reused, numSets, assoc)
			want := exercise(fresh, numSets, assoc)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("victim pick %d diverges after reset: got way %d, fresh picks way %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestCheckResetStateDetectsResidue proves the reset-state check in
// TestResetStateEquivalence actually bites: a policy carrying
// post-workload residue is not DeepEqual to a fresh one.
func TestCheckResetStateDetectsResidue(t *testing.T) {
	const numSets, assoc = 64, 8
	for _, k := range allKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			p := New(k, numSets, assoc)
			exercise(p, numSets, assoc)
			if reflect.DeepEqual(p, New(k, numSets, assoc)) {
				t.Fatal("exercised policy is DeepEqual to a fresh one without a reset")
			}
		})
	}
}
