package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"tlacache/internal/statecheck"
)

func testProfile() Profile {
	return Profile{
		Name:          "test",
		CodeBytes:     16 << 10,
		BranchEvery:   8,
		MemPerMille:   400,
		StorePerMille: 250,
		Components: []Component{
			{Weight: 3, Pattern: Random, WS: 64 << 10},
			{Weight: 1, Pattern: Stream, WS: 8 << 20, Stride: 8},
		},
	}
}

func TestOpString(t *testing.T) {
	if OpNone.String() != "none" || OpLoad.String() != "load" || OpStore.String() != "store" {
		t.Fatal("Op.String wrong")
	}
	if Op(9).String() != "Op(9)" {
		t.Fatal("unknown Op.String wrong")
	}
}

func TestSyntheticDeterministicAndResettable(t *testing.T) {
	a := MustSynthetic(testProfile(), 42)
	b := MustSynthetic(testProfile(), 42)
	var ia, ib Instr
	first := make([]Instr, 0, 1000)
	for i := 0; i < 1000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("instr %d: generators with equal seeds diverged: %+v vs %+v", i, ia, ib)
		}
		first = append(first, ia)
	}
	a.Reset()
	for i := 0; i < 1000; i++ {
		a.Next(&ia)
		if ia != first[i] {
			t.Fatalf("instr %d after Reset: %+v, want %+v", i, ia, first[i])
		}
	}
}

// TestReinitMatchesNewSynthetic is the reset twin behind generator
// pooling: a generator that ran one profile and was reinitialised for
// another must equal, field for field, a new generator of the second.
// The profiles differ in kind — two components of both patterns, one
// Stream component, and no memory accesses at all — so every derived
// field changes shape between them.
func TestReinitMatchesNewSynthetic(t *testing.T) {
	stream := testProfile()
	stream.Components = stream.Components[1:]
	compute := testProfile()
	compute.MemPerMille, compute.Components = 0, nil
	profiles := []Profile{testProfile(), stream, compute}
	for a, pa := range profiles {
		for b, pb := range profiles {
			g := MustSynthetic(pa, 7)
			var in Instr
			for i := 0; i < 1000; i++ {
				g.Next(&in)
			}
			if err := g.Reinit(pb, 9); err != nil {
				t.Fatal(err)
			}
			if d := statecheck.Diff(g, MustSynthetic(pb, 9)); d != "" {
				t.Errorf("profile %d reinitialised as profile %d differs from a new generator: %s", a, b, d)
			}
		}
	}
}

func TestSyntheticSeedsDiffer(t *testing.T) {
	a := MustSynthetic(testProfile(), 1)
	b := MustSynthetic(testProfile(), 2)
	var ia, ib Instr
	same := 0
	for i := 0; i < 1000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia == ib {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced %d/1000 identical instructions", same)
	}
}

func TestSyntheticAddressesStayInRegions(t *testing.T) {
	p := testProfile()
	g := MustSynthetic(p, 7)
	var in Instr
	for i := 0; i < 20000; i++ {
		g.Next(&in)
		if in.PC < g.CodeStart() || in.PC >= g.CodeStart()+uint64(p.CodeBytes) {
			t.Fatalf("PC %#x outside code footprint", in.PC)
		}
		if in.Op == OpNone {
			continue
		}
		inSome := false
		for ci, c := range p.Components {
			base := g.ComponentBase(ci)
			if in.Addr >= base && in.Addr < base+uint64(c.WS) {
				inSome = true
			}
		}
		if !inSome {
			t.Fatalf("data address %#x outside every component region", in.Addr)
		}
	}
}

func TestSyntheticMemRatioApproximate(t *testing.T) {
	p := testProfile()
	g := MustSynthetic(p, 3)
	var in Instr
	const n = 200000
	mem, stores := 0, 0
	for i := 0; i < n; i++ {
		g.Next(&in)
		if in.Op != OpNone {
			mem++
			if in.Op == OpStore {
				stores++
			}
		}
	}
	gotMem := float64(mem) / n
	if gotMem < 0.37 || gotMem > 0.43 {
		t.Errorf("memory ratio = %.3f, want ~0.40", gotMem)
	}
	gotStore := float64(stores) / float64(mem)
	if gotStore < 0.22 || gotStore > 0.28 {
		t.Errorf("store fraction = %.3f, want ~0.25", gotStore)
	}
}

func TestSyntheticStreamComponentStrides(t *testing.T) {
	p := Profile{
		Name: "stream", CodeBytes: 4096, BranchEvery: 1 << 30,
		MemPerMille: 1000, StorePerMille: 0,
		Components: []Component{{Weight: 1, Pattern: Stream, WS: 1 << 20, Stride: 64}},
	}
	g := MustSynthetic(p, 1)
	var in Instr
	g.Next(&in)
	prev := in.Addr
	for i := 0; i < 1000; i++ {
		g.Next(&in)
		if in.Addr != prev+64 {
			t.Fatalf("stream stride broken: %#x -> %#x", prev, in.Addr)
		}
		prev = in.Addr
	}
}

func TestSyntheticStreamWraps(t *testing.T) {
	p := Profile{
		Name: "wrap", CodeBytes: 4096, BranchEvery: 1 << 30,
		MemPerMille: 1000, StorePerMille: 0,
		Components: []Component{{Weight: 1, Pattern: Stream, WS: 256, Stride: 64}},
	}
	g := MustSynthetic(p, 1)
	var in Instr
	seen := map[uint64]int{}
	for i := 0; i < 16; i++ {
		g.Next(&in)
		seen[in.Addr]++
	}
	if len(seen) != 4 {
		t.Fatalf("wrap produced %d distinct addresses, want 4", len(seen))
	}
	for a, n := range seen {
		if n != 4 {
			t.Fatalf("address %#x seen %d times, want 4", a, n)
		}
	}
}

func TestSyntheticName(t *testing.T) {
	g := MustSynthetic(testProfile(), 1)
	if g.Name() != "test" {
		t.Fatalf("Name = %q", g.Name())
	}
}

func TestMustSyntheticPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSynthetic did not panic on invalid profile")
		}
	}()
	MustSynthetic(Profile{}, 0)
}

// failWriter fails after n bytes, exercising writer error paths.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errFail
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "synthetic write failure" }

func TestWriterErrorPaths(t *testing.T) {
	w, err := NewWriter(&failWriter{n: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the bufio buffer until the underlying failure surfaces.
	var werr error
	for i := 0; i < 100_000 && werr == nil; i++ {
		werr = w.Write(Instr{PC: uint64(i) * 1_000_000, Op: OpLoad, Addr: ^uint64(0) - uint64(i)})
		if werr == nil {
			werr = w.Flush()
		}
	}
	if werr == nil {
		t.Error("writes to a failing writer never errored")
	}
}

func TestProfileValidate(t *testing.T) {
	base := testProfile()
	mutations := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.CodeBytes = 0 },
		func(p *Profile) { p.BranchEvery = 0 },
		func(p *Profile) { p.MemPerMille = 1001 },
		func(p *Profile) { p.StorePerMille = -1 },
		func(p *Profile) { p.Components = nil },
		func(p *Profile) { p.Components[0].Weight = 0 },
		func(p *Profile) { p.Components[0].WS = 0 },
		func(p *Profile) { p.Components[1].Stride = 0 },
		func(p *Profile) { p.Components[0].WS = componentSpan + 1 },
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	for i, mut := range mutations {
		p := testProfile()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: invalid profile accepted", i)
		}
	}
	if _, err := NewSynthetic(Profile{}, 0); err == nil {
		t.Error("NewSynthetic accepted empty profile")
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := MustSynthetic(testProfile(), 11)
	var in Instr
	want := make([]Instr, 5000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		g.Next(&in)
		want[i] = in
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 5000 {
		t.Fatalf("Count = %d", w.Count())
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	f := func(pcs []uint64, ops []uint8) bool {
		n := len(pcs)
		if len(ops) < n {
			n = len(ops)
		}
		recs := make([]Instr, n)
		for i := 0; i < n; i++ {
			recs[i] = Instr{PC: pcs[i], Op: Op(ops[i] % 3)}
			if recs[i].Op != OpNone {
				recs[i].Addr = pcs[i] ^ 0xdeadbeef
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsBadInput(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE!!"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Valid header, invalid op byte.
	var buf bytes.Buffer
	buf.Write(fileMagic)
	buf.WriteByte(200)
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var in Instr
	if err := r.Read(&in); err == nil || err == io.EOF {
		t.Errorf("invalid op byte: err = %v, want corruption error", err)
	}
	// Truncated record: op present, varint missing.
	buf.Reset()
	buf.Write(fileMagic)
	buf.WriteByte(byte(OpLoad))
	r, err = NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Read(&in); err == nil {
		t.Error("truncated record accepted")
	}
	if err := (&Writer{}).Write(Instr{Op: 9}); err == nil {
		t.Error("Writer accepted invalid op")
	}
}

func TestReplayLoops(t *testing.T) {
	recs := []Instr{
		{PC: 0x100, Op: OpNone},
		{PC: 0x104, Op: OpLoad, Addr: 0x8000},
		{PC: 0x108, Op: OpStore, Addr: 0x8008},
	}
	g, err := NewReplay("loop", recs)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "loop" {
		t.Fatalf("Name = %q", g.Name())
	}
	var in Instr
	for i := 0; i < 10; i++ {
		g.Next(&in)
		if in != recs[i%3] {
			t.Fatalf("iteration %d: %+v, want %+v", i, in, recs[i%3])
		}
	}
	g.Reset()
	g.Next(&in)
	if in != recs[0] {
		t.Fatal("Reset did not rewind")
	}
	if _, err := NewReplay("empty", nil); err == nil {
		t.Error("NewReplay accepted empty trace")
	}
}
