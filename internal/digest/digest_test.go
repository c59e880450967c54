package digest

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"
)

// leaf is a padded struct of narrow fields: hashed field by field, copied
// as one memmove.
type leaf struct {
	A int8
	B uint64
	C bool
	D float32
	E int16
}

// node is the synthetic state type FuzzCodec drives every plan kind
// through: raw words, narrow and padded leaves, strings, byte images, nil
// and empty slices, pointers and a recursive tail.
type node struct {
	Name   string
	Image  []byte
	Ints   []int32
	Leaves []leaf
	Arr    [2]leaf
	Words  [3]uint64
	Ptr    *leaf
	Next   *node
	F      float64
	Memo   int `digest:"-"` // derived: every operation skips it
}

// gen decodes a node from fuzz bytes; every byte string decodes to some
// node, so the fuzzer explores shapes and contents alike.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *gen) u64() uint64 {
	var w [8]byte
	for i := range w {
		w[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(w[:])
}

// shape picks nil (0), empty (1) or a length of up to 4 (2..).
func (g *gen) shape() int { return int(g.byte() % 6) }

func (g *gen) leaf() leaf {
	return leaf{A: int8(g.byte()), B: g.u64(), C: g.byte()&1 == 1, D: math.Float32frombits(uint32(g.u64())), E: int16(g.u64())}
}

func (g *gen) node(depth int) node {
	n := node{Name: strings.Repeat("x", int(g.byte()%5)), F: math.Float64frombits(g.u64()), Memo: int(g.byte())}
	if s := g.shape(); s > 0 {
		n.Image = make([]byte, s-1)
		for i := range n.Image {
			n.Image[i] = g.byte()
		}
	}
	if s := g.shape(); s > 0 {
		n.Ints = make([]int32, s-1)
		for i := range n.Ints {
			n.Ints[i] = int32(g.u64())
		}
	}
	if s := g.shape(); s > 0 {
		n.Leaves = make([]leaf, s-1)
		for i := range n.Leaves {
			n.Leaves[i] = g.leaf()
		}
	}
	n.Arr = [2]leaf{g.leaf(), g.leaf()}
	n.Words = [3]uint64{g.u64(), g.u64(), g.u64()}
	if g.byte()&1 == 1 {
		l := g.leaf()
		n.Ptr = &l
	}
	if depth < 2 && g.byte()&1 == 1 {
		next := g.node(depth + 1)
		n.Next = &next
	}
	return n
}

// scramble rewrites every mutable leaf reachable from n in place — slice
// and array elements, pointer targets — so a copy that shared any storage
// with n would change with it.
func scramble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
		if v.CanSet() {
			v.SetInt(^v.Int())
		}
	case reflect.Uint8, reflect.Uint64:
		if v.CanSet() {
			v.SetUint(^v.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if v.CanSet() {
			v.SetFloat(v.Float() + 1)
		}
	case reflect.Bool:
		if v.CanSet() {
			v.SetBool(!v.Bool())
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scramble(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scramble(v.Field(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			scramble(v.Elem())
		}
	}
}

// FuzzCodec holds the codec's laws on arbitrary nodes: a clone digests like
// its source, shares no storage with it and shows no Diff; Copy onto an
// arbitrary earlier value does the same and keeps the destination's
// skipped field; and Diff is empty exactly when the digests match.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{}, []byte{1})
	f.Add([]byte{5, 5, 5, 5, 1, 1, 1, 1, 1, 1, 1, 1}, []byte{5, 5, 5, 5, 1, 1, 1, 1, 1, 1, 1, 2})
	f.Add([]byte("nil vs empty: \x00\x01\x00\x01"), []byte("nil vs empty: \x01\x00\x01\x00"))
	f.Add([]byte(strings.Repeat("\x03\x07", 40)), []byte(strings.Repeat("\x05\xff", 60)))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		x := (&gen{a}).node(0)
		ref := (&gen{a}).node(0)
		y := (&gen{b}).node(0)
		sx, sy := Sum(&x), Sum(&y)
		if d := Diff(&x, &y); (d == "") != (sx == sy) {
			t.Fatalf("Diff = %q but digests %016x, %016x", d, sx, sy)
		}

		c := Clone(&x)
		if Sum(&c) != sx || Diff(&x, &c) != "" || c.Memo != 0 {
			t.Fatalf("clone digests %016x (source %016x), Diff %q, Memo %d", Sum(&c), sx, Diff(&x, &c), c.Memo)
		}
		memo := y.Memo
		Copy(&y, &x)
		if Sum(&y) != sx || Diff(&x, &y) != "" || y.Memo != memo {
			t.Fatalf("copy digests %016x (source %016x), Diff %q, Memo %d (kept %d)", Sum(&y), sx, Diff(&x, &y), y.Memo, memo)
		}

		scramble(reflect.ValueOf(&x).Elem())
		if Sum(&c) != Sum(&ref) || Sum(&y) != Sum(&ref) {
			t.Fatalf("scrambling the source moved a copy: clone %q, copy %q", Diff(&c, &ref), Diff(&y, &ref))
		}
	})
}

// TestSumStream pins the word stream's shape rules on small values.
func TestSumStream(t *testing.T) {
	var nilSlice, empty []int32 = nil, []int32{}
	if Sum(&nilSlice) == Sum(&empty) {
		t.Error("nil and empty slices digest alike")
	}
	a := leaf{A: 1, B: 2}
	b := a
	*(*byte)(reflect.ValueOf(&b).Elem().Field(0).Addr().UnsafePointer()) = 1 // same value
	if Sum(&a) != Sum(&b) {
		t.Error("equal padded structs digest differently")
	}
}

// TestDiffPath: the path names fields and elements, leaving embedded
// structs out.
func TestDiffPath(t *testing.T) {
	type inner struct{ Releases []uint64 }
	type Embedded struct{ Lhq inner }
	type row struct{ Embedded }
	type state struct{ Cores []row }
	a := state{Cores: []row{{}, {Embedded{inner{[]uint64{1, 2, 3, 4}}}}}}
	b := Clone(&a)
	b.Cores[1].Lhq.Releases[3] = 9
	if got := Diff(&a, &b); got != "Cores[1].Lhq.Releases[3]" {
		t.Errorf("Diff = %q", got)
	}
	x, y := uint32(1), uint32(2)
	if got := Diff(&x, &y); got != "(root)" {
		t.Errorf("scalar Diff = %q, want (root)", got)
	}
}

// TestCopyReusesStorage: Copy onto a same-shaped value writes in place and
// allocates nothing — the property a checkpoint restore relies on.
func TestCopyReusesStorage(t *testing.T) {
	src := (&gen{[]byte(strings.Repeat("\x05\x03", 50))}).node(0)
	dst := Clone(&src)
	image, leaves := &dst.Image[0], &dst.Leaves[0]
	if n := testing.AllocsPerRun(20, func() { Copy(&dst, &src) }); n != 0 {
		t.Fatalf("Copy onto a same-shaped value allocated %v times", n)
	}
	if &dst.Image[0] != image || &dst.Leaves[0] != leaves {
		t.Fatal("Copy replaced storage the destination already held")
	}
}

// TestCloneAllocatesOncePerSlice: Clone grows each missing slice in place,
// so a slice costs its backing array alone, and an empty slice stays
// distinct from a nil one.
func TestCloneAllocatesOncePerSlice(t *testing.T) {
	type three struct {
		Image  []byte
		Ints   []int32
		Leaves []leaf
	}
	src := three{[]byte("abc"), []int32{1, 2}, []leaf{{A: 1}, {B: 2}}}
	if n := testing.AllocsPerRun(20, func() { _ = Clone(&src) }); n != 3 {
		t.Fatalf("Clone of three non-empty slices allocated %v times, want 3", n)
	}
	empty := three{Image: []byte{}}
	if c := Clone(&empty); c.Image == nil || c.Ints != nil || Sum(&c) != Sum(&empty) {
		t.Fatalf("Clone of an empty and two nil slices = %#v", c)
	}
}

// wiredRow and wired hold a field of any type two levels down, for
// TestRejectsNonData.
type wiredRow[T any] struct {
	OK    []int
	Field T
}

type wired[T any] struct{ Rows []wiredRow[T] }

// TestRejectsNonData: a plan for a type holding a map, interface, func or
// chan panics with the offending field's path.
func TestRejectsNonData(t *testing.T) {
	for kind, sum := range map[string]func(){
		"map":       func() { var v wired[map[string]int]; Sum(&v) },
		"interface": func() { var v wired[any]; Sum(&v) },
		"func":      func() { var v wired[func()]; Copy(&v, &v) },
		"chan":      func() { var v wired[chan int]; Clone(&v) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Rows[].Field is a "+kind) {
					t.Errorf("%s field: panic %q does not name the field path", kind, msg)
				}
			}()
			sum()
		}()
	}
}

// TestFNVMatchesHashFNV: the builder's stream is FNV-64a over the packed
// bytes, so values recorded with hand-rolled packing keep.
func TestFNVMatchesHashFNV(t *testing.T) {
	d := NewFNV()
	d.U64(1, 1<<40)
	d.I64(-3)
	d.Bool(true)
	d.Bytes([]byte{9, 8})

	h := fnv.New64a()
	var w [8]byte
	for _, v := range []uint64{1, 1 << 40, uint64(^uint64(2)), 1} {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	h.Write([]byte{9, 8})
	if d.Sum() != h.Sum64() {
		t.Fatalf("FNV = %016x, hash/fnv = %016x", d.Sum(), h.Sum64())
	}
}
