package statecheck

import (
	"reflect"
	"strings"
	"testing"
)

type inner struct {
	n    int
	tags []uint64
}

type outer struct {
	name  string
	in    inner
	p     *inner
	m     map[string]int
	f     float64
	elems []inner
}

func TestDiff(t *testing.T) {
	base := func() outer {
		return outer{name: "a", in: inner{n: 1}, p: &inner{n: 2}, m: map[string]int{"k": 3}}
	}
	for _, tc := range []struct {
		name string
		mut  func(*outer)
		want string // substring of the diff; "" means equal
	}{
		{"equal", func(*outer) {}, ""},
		{"unexported scalar", func(o *outer) { o.in.n = 9 }, ".in.n: got 9, want 1"},
		{"through a pointer", func(o *outer) { o.p.n = 9 }, ".p.n: got 9, want 2"},
		{"nil pointer", func(o *outer) { o.p = nil }, ".p: got nil, want non-nil"},
		{"map value", func(o *outer) { o.m["k"] = 4 }, `.m["k"]: got 4, want 3`},
		{"map key", func(o *outer) { o.m = map[string]int{"j": 3} }, `.m["k"]: missing`},
		{"nil equals all-zero slice", func(o *outer) { o.in.tags = make([]uint64, 4) }, ""},
		{"nil equals empty slice", func(o *outer) { o.in.tags = []uint64{} }, ""},
		{"residue in a slice", func(o *outer) { o.in.tags = []uint64{0, 5} }, ".in.tags[1]: got 5, want an empty slice"},
		{"nested slice element", func(o *outer) { o.elems = []inner{{}, {n: 1}} }, ".elems[1]: got "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := base(), base()
			tc.mut(&got)
			d := Diff(got, want)
			if tc.want == "" && d != "" {
				t.Fatalf("Diff = %q, want equal", d)
			}
			if !strings.Contains(d, tc.want) {
				t.Fatalf("Diff = %q, want it to contain %q", d, tc.want)
			}
		})
	}
	unexported := func(tags ...uint64) outer { return outer{in: inner{tags: tags}} }
	if d := Diff(unexported(1, 2, 3), unexported(1, 2, 4)); d != ".in.tags[2]: got 3, want 4" {
		t.Errorf("differing unexported slices: %q", d)
	}
	if d := Diff(unexported(1, 2, 3), unexported(1, 2, 3)); d != "" {
		t.Errorf("equal unexported slices: %q", d)
	}
	if d := Diff([]uint64{1, 2}, []uint64{1, 2, 3}); d != "(root): got length 2, want 3" {
		t.Errorf("length mismatch: %q", d)
	}
	negZero := 0.0
	negZero = -negZero
	if d := Diff(negZero, 0.0); d == "" {
		t.Error("-0 and +0 compared equal; floats must compare by bit pattern")
	}
}

// TestDiffSharedAndCyclicPointers: structure reached twice, or through
// a cycle, is compared once and terminates.
func TestDiffSharedAndCyclicPointers(t *testing.T) {
	type node struct {
		next *node
		v    int
	}
	a, b := &node{v: 1}, &node{v: 1}
	a.next, b.next = a, b
	if d := Diff(a, b); d != "" {
		t.Fatalf("cyclic equal graphs: %q", d)
	}
	b.v = 2
	if d := Diff(a, b); d != ".v: got 1, want 2" {
		t.Fatalf("cyclic graphs differing in v: %q", d)
	}
}

type Base struct {
	ID    int
	Flags struct{ On bool }
}

type Config struct {
	Base
	Name  string
	Ratio float64
	Hook  *Base
	Apps  []string
	Count map[string]uint64
}

func TestLeavesDescendsEmbeddedFields(t *testing.T) {
	var paths []string
	Leaves(&Config{}, func(path string, v reflect.Value) { paths = append(paths, path) })
	want := []string{"Base.ID", "Base.Flags.On", "Name", "Ratio", "Hook", "Apps", "Count"}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("leaves of a zero Config = %v, want %v", paths, want)
	}
}

// TestChangeFillsEveryLeaf: walking a zero value with Change sets
// every leaf, allocating pointers, slices and maps on the way down.
func TestChangeFillsEveryLeaf(t *testing.T) {
	var c Config
	n := 0
	Leaves(&c, func(_ string, v reflect.Value) { Change(v); n++ })
	want := Config{
		Base:  Base{ID: 1, Flags: struct{ On bool }{true}},
		Name:  "x",
		Ratio: 1,
		Hook:  &Base{ID: 1, Flags: struct{ On bool }{true}},
		Apps:  []string{"x"},
		Count: map[string]uint64{"x": 1},
	}
	if d := Diff(c, want); d != "" {
		t.Fatalf("filled Config: %s", d)
	}
	if n != 11 {
		t.Errorf("visited %d leaves, want 11", n)
	}
	// Change on a set pointer, slice or map clears it.
	for _, v := range []reflect.Value{
		reflect.ValueOf(&c.Hook).Elem(), reflect.ValueOf(&c.Apps).Elem(), reflect.ValueOf(&c.Count).Elem(),
	} {
		Change(v)
		if !v.IsNil() {
			t.Errorf("Change left a %s set", v.Type())
		}
	}
}

func TestLeavesRejectsUnexportedFields(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "unexported field name") {
			t.Fatalf("recovered %v, want a panic naming the unexported field", r)
		}
	}()
	Leaves(&outer{}, func(string, reflect.Value) {})
}

// TestAllocsCountsGrowthAMeanTruncates pins why Allocs exists: a slice
// that grows a little at a time reads as zero allocations per run
// under testing.AllocsPerRun, and Allocs still counts every growth.
func TestAllocsCountsGrowthAMeanTruncates(t *testing.T) {
	var grown []int
	grow := func() { grown = append(grown, len(grown)) }
	for range 1000 {
		grow()
	}
	if avg := testing.AllocsPerRun(1000, grow); avg != 0 {
		t.Fatalf("AllocsPerRun = %v; the premise is a mean that truncates to 0", avg)
	}
	c := Allocs(func() {
		for range 2000 {
			grow()
		}
	})
	if c.Mallocs == 0 || c.Bytes == 0 {
		t.Errorf("Allocs = %v over 2000 appends to a full slice, want allocations and bytes", c)
	}
	if len(c.Sites) == 0 || !strings.Contains(c.Sites[0], "TestAllocsCountsGrowthAMeanTruncates") {
		t.Errorf("Allocs sites %q do not name the appending test", c.Sites)
	}
	if c := Allocs(func() {}); c.Mallocs != 0 || c.Bytes != 0 {
		t.Errorf("Allocs of an empty function = %v, want 0", c)
	}
}

// allocSink keeps TestAllocsFollowsCalleesAndGoroutines's allocations
// on the heap.
var allocSink []any

// TestAllocsFollowsCalleesAndGoroutines: Allocs counts what f's callees
// allocate, tiny objects included, and what a goroutine f starts
// allocates, each at its own site.
func TestAllocsFollowsCalleesAndGoroutines(t *testing.T) {
	allocSink = make([]any, 0, 64)
	c := Allocs(func() {
		for i := range 10 {
			allocSink = append(allocSink, new(int8), new([64]byte), i+1000)
		}
		done := make(chan struct{})
		go func() {
			allocSink = append(allocSink, new([256]byte))
			close(done)
		}()
		<-done
	})
	// The ten 64-byte objects, at least one block of the twenty tiny
	// ones, the channel and the goroutine's object.
	if c.Mallocs < 13 {
		t.Errorf("Allocs = %v, want at least 13", c)
	}
	if !strings.Contains(strings.Join(c.Sites, "\n"), "TestAllocsFollowsCalleesAndGoroutines.func1.1") {
		t.Errorf("Allocs sites %q do not name the goroutine f started", c.Sites)
	}
	allocSink = nil
}
