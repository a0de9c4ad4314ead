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
	if !ranksArePermutation(p, 0, 256) {
		t.Fatal("256-way LRU ranks are not a permutation of the ways")
	}
}
