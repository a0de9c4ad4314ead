package replacement

import (
	"fmt"
	"strings"
	"testing"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	fn()
}

// TestNewRejectsInvalidGeometry: every kind must refuse non-positive
// set counts and associativities with an attributable panic.
func TestNewRejectsInvalidGeometry(t *testing.T) {
	for _, k := range allKinds() {
		mustPanic(t, "invalid geometry", func() { New(k, 0, 4) })
		mustPanic(t, "invalid geometry", func() { New(k, 16, 0) })
		mustPanic(t, "invalid geometry", func() { New(k, -1, 4) })
	}
	mustPanic(t, "unknown kind", func() { New(Kind(99), 4, 4) })
}

// TestLRUWayLimit: the uint8 recency representation caps LRU at 256
// ways; 256 must work, 257 must panic.
func TestLRUWayLimit(t *testing.T) {
	mustPanic(t, "at most 256 ways", func() { New(LRU, 2, 257) })

	p := New(LRU, 2, 256)
	if v := p.Victim(0); v != 255 {
		t.Fatalf("initial victim = %d, want 255", v)
	}
	p.Touch(0, 255)
	if v := p.Victim(0); v != 254 {
		t.Fatalf("victim after touching 255 = %d, want 254", v)
	}
	if err := p.CheckSet(0); err != nil {
		t.Fatal(err)
	}
}

// TestLRUCheckSetDetectsCorruption verifies CheckSet actually
// distinguishes a healthy stack from a corrupted one.
func TestLRUCheckSetDetectsCorruption(t *testing.T) {
	p := newLRU(2, 4)
	p.Touch(0, 2)
	p.Demote(0, 1)
	for s := 0; s < 2; s++ {
		if err := p.CheckSet(s); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate the MRU way into position 1 of set 0's packed stack.
	p.packed[0] = p.packed[0]&^0xF0 | p.packed[0]&0xF<<4
	if err := p.CheckSet(0); err == nil {
		t.Fatal("duplicated way in stack accepted")
	}

	// The wide (assoc > 16) representation must catch the same thing.
	w := newLRU(2, 20)
	w.Touch(0, 13)
	if err := w.CheckSet(0); err != nil {
		t.Fatal(err)
	}
	w.stack[0] = w.stack[1]
	if err := w.CheckSet(0); err == nil {
		t.Fatal("duplicated way in wide stack accepted")
	}
}

// TestNRUCheckSetDetectsCorruption covers both NRU invariants: the
// live count must match the reference bits, and a set must never be
// fully referenced.
func TestNRUCheckSetDetectsCorruption(t *testing.T) {
	p := newNRU(2, 4)
	p.Touch(0, 1)
	p.Touch(0, 2)
	if err := p.CheckSet(0); err != nil {
		t.Fatal(err)
	}
	p.live[0] = 3
	if err := p.CheckSet(0); err == nil {
		t.Fatal("stale live count accepted")
	}
	p.live[0] = 2

	for w := 0; w < p.assoc; w++ {
		p.ref[w] = true
	}
	p.live[0] = 4
	if err := p.CheckSet(0); err == nil {
		t.Fatal("fully referenced set accepted")
	}
}
