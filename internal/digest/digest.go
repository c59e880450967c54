// Package digest is the simulator's state codec. Every stateful component
// keeps what it checkpoints in one plain-data struct, and four operations
// work on any such value through one compiled plan per type:
//
//   - Sum hashes the value into a content digest (the checkpoint integrity
//     stamp, and the determinism suites' full-state comparisons);
//   - Copy deep-copies one value into another, writing into the storage the
//     destination already holds (a checkpoint restore);
//   - Clone deep-copies a value into fresh storage (a checkpoint);
//   - Diff names the first field path at which two values differ (what a
//     failed comparison reports instead of two hex words).
//
// # The tree rule
//
// A state value is a tree: every slice, map and pointer in it is owned by
// it, no two of them share storage and none refers outside the value.
// Configuration, wiring and derived state (a component's neighbours, its
// cached cursors and memos, host time) stay outside the state struct, or,
// inside a small value type that is state as a whole, carry the field tag
// `digest:"-"`: every operation skips such a field — Copy leaves the
// destination's value in place, Clone leaves it zero — so the component
// rebuilds it after a restore. Interfaces, funcs, chans and unsafe.Pointers
// are never plain data, and compiling a plan for a type that holds one
// panics with the path of the offending field.
//
// # The word stream
//
// Sum is FNV-1a lifted to 64-bit words over a deterministic word stream of
// the value, defined leaf by leaf so a reflective walker can reproduce it
// (internal/arch keeps one as the oracle):
//
//   - a scalar is one word: its bits for 8-byte integers and float64,
//     sign- or zero-extended for narrower integers, the raw byte for a bool,
//     the raw bits for a float32; a complex number is its two parts;
//   - a byte image (a string or a []byte) is its length, then its bytes
//     8 per little-endian word, the last word zero-padded;
//   - a struct is its fields in declaration order, an array its elements;
//     neither adds a word, since their shape is static;
//   - shape words carry the rest: a nil slice, map or pointer is tagNil; a
//     slice is tagSeq, its length and its elements; a pointer is tagPtr and
//     its target; a map is tagMap, its length and, in ascending order of key
//     digest, each key's digest and value.
//
// Reflection runs once per type: a plan is the type's field offsets and
// kinds, cached for the process, and the operations run it over the value's
// memory through unsafe.Add and unsafe.Slice (confined to this package).
// Runs of pointer-free, padding-free 8-byte leaves — a 64-bit field, a
// struct or array of them, a whole cache tag array — hash as raw words at
// memory speed, and any pointer-free value copies as one memmove. A struct
// with padding hashes field by field, so its padding bytes, whose content Go
// leaves unspecified, never reach a digest.
package digest

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"unsafe"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Shape words: the only words of the stream that are not leaf values.
const (
	tagNil uint64 = iota
	tagPtr
	tagSeq
	tagMap
)

// Sum returns the content digest of *v.
func Sum[T any](v *T) uint64 { return sumAt(v, unsafe.Pointer(v)) }

// Copy makes *dst a deep copy of *src. It writes into dst's existing
// slices, arrays, map values and pointer targets wherever their shape
// matches — a slice whose capacity holds the source's length, a non-nil
// pointer — and allocates only where it does not, so restoring a snapshot
// onto the state it was taken from allocates nothing (a map is rebuilt
// entry by entry, which may). A nil slice, map or pointer in src is nil in
// dst, an empty one empty. Fields tagged `digest:"-"` keep dst's values.
func Copy[T any](dst, src *T) { copyAt(dst, unsafe.Pointer(dst), unsafe.Pointer(src)) }

// Clone returns a deep copy of *src in fresh storage: Copy into a zero
// value. It shares no memory with src.
func Clone[T any](src *T) T {
	var dst T
	Copy(&dst, src)
	return dst
}

// ResetPlans empties the plan cache, for tests that compile plans from a
// cold start.
func ResetPlans() {
	plans.mu.Lock()
	plans.m.Range(func(k, _ any) bool {
		plans.m.Delete(k)
		return true
	})
	plans.mu.Unlock()
}

// sumAt and copyAt run Sum and Copy for the type typed points to. The
// generic entry points only forward to them: a call into a generic
// function's shaped body counts as an escape of every argument, while these
// have exact escape facts, so a caller's local state stays on its stack.
func sumAt(typed any, v unsafe.Pointer) uint64 {
	h := newHasher()
	h.run(planFor(reflect.TypeOf(typed).Elem()), v)
	return h.sum()
}

func copyAt(typed any, dst, src unsafe.Pointer) {
	copyRun(planFor(reflect.TypeOf(typed).Elem()), dst, src)
}

// opKind is what one plan step reads at its offset.
type opKind uint8

const (
	opWords  opKind = iota // n raw 64-bit words
	opU8                   // zero-extended byte (uint8, bool)
	opU16                  // zero-extended uint16
	opU32                  // zero-extended uint32 (float32 bits)
	opI8                   // sign-extended int8
	opI16                  // sign-extended int16
	opI32                  // sign-extended int32
	opString               // byte image of a string
	opBytes                // nil or tagSeq and the byte image of a byte slice
	opSlice                // nil or tagSeq, length and elements
	opArray                // n elements of a padded element type
	opPtr                  // nil or tagPtr and the target
	opMap                  // nil or tagMap, length and sorted entries
)

// leafBytes is the memory width of each scalar step, for Copy.
var leafBytes = [...]uintptr{opU8: 1, opU16: 2, opU32: 4, opI8: 1, opI16: 2, opI32: 4}

// op is one step of a plan.
type op struct {
	kind opKind
	off  uintptr
	n    int          // opWords: word count; opArray: length
	elem *plan        // opBytes, opSlice, opArray, opPtr: element; opMap: value
	key  *plan        // opMap: key
	typ  reflect.Type // opBytes, opSlice, opMap: the field's type
}

// plan runs one type: either size/8 raw words, or its steps in order.
type plan struct {
	typ  reflect.Type
	size uintptr
	raw  bool // memory is the word stream
	flat bool // pointer-free with no skipped field: copies as memory
	ops  []op
}

// plans caches one plan per type. Plans are immutable once stored, so the
// operations load them without the lock; mu serializes compilation.
var plans struct {
	mu sync.Mutex
	m  sync.Map // reflect.Type -> *plan
}

// planFor returns t's plan, compiling it (and every plan it reaches) on
// first use. A rejected type stores nothing.
func planFor(t reflect.Type) *plan {
	if p, ok := plans.m.Load(t); ok {
		return p.(*plan)
	}
	plans.mu.Lock()
	defer plans.mu.Unlock()
	c := compiler{new: map[reflect.Type]*plan{}}
	p := c.compile(t, t.String())
	for typ, q := range c.new {
		plans.m.Store(typ, q)
	}
	return p
}

// compiler builds the plans one planFor call needs.
type compiler struct {
	new map[reflect.Type]*plan
}

// compile returns t's plan. A plan is registered before its steps are
// filled in, so a recursive type reached again through a pointer, slice or
// map links to the plan being built. path names t for error messages.
func (c *compiler) compile(t reflect.Type, path string) *plan {
	if p, ok := plans.m.Load(t); ok {
		return p.(*plan)
	}
	if p := c.new[t]; p != nil {
		return p
	}
	p := &plan{typ: t, size: t.Size(), raw: rawWords(t), flat: flat(t)}
	c.new[t] = p
	if !p.raw {
		p.ops = c.appendOps(nil, t, 0, path)
	}
	return p
}

// skipped reports whether f carries the `digest:"-"` tag.
func skipped(f reflect.StructField) bool { return f.Tag.Get("digest") == "-" }

// rawWords reports whether a t is nothing but 8-byte integer and float
// leaves with no padding and no skipped field, so its memory is its word
// stream.
func rawWords(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Uintptr, reflect.Float64, reflect.Complex128:
		return t.Size()%8 == 0 // int, uint and uintptr are narrower on 32-bit hosts
	case reflect.Array:
		return rawWords(t.Elem())
	case reflect.Struct:
		var end uintptr
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Offset != end || skipped(f) || !rawWords(f.Type) {
				return false
			}
			end += f.Type.Size()
		}
		return end == t.Size()
	}
	return false
}

// flat reports whether a t holds no pointer and no skipped field, so a
// memmove copies it.
func flat(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return flat(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); skipped(f) || !flat(f.Type) {
				return false
			}
		}
		return true
	}
	return false
}

// appendOps appends the steps that run a t stored at off. Nested structs
// are flattened into the caller's steps so adjacent raw fields merge into
// one opWords run across struct boundaries.
func (c *compiler) appendOps(ops []op, t reflect.Type, off uintptr, path string) []op {
	if rawWords(t) {
		n := int(t.Size() / 8)
		if last := len(ops) - 1; last >= 0 && ops[last].kind == opWords && ops[last].off+uintptr(ops[last].n)*8 == off {
			ops[last].n += n
			return ops
		}
		if n == 0 {
			return ops
		}
		return append(ops, op{kind: opWords, off: off, n: n})
	}
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); !skipped(f) {
				ops = c.appendOps(ops, f.Type, off+f.Offset, path+"."+f.Name)
			}
		}
		return ops
	case reflect.Array:
		return append(ops, op{kind: opArray, off: off, n: t.Len(), elem: c.compile(t.Elem(), path+"[]")})
	case reflect.Bool, reflect.Uint8:
		return append(ops, op{kind: opU8, off: off})
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// 8-byte integers are raw words; the narrower ones land here.
		return append(ops, op{kind: map[uintptr]opKind{1: opI8, 2: opI16, 4: opI32}[t.Size()], off: off})
	case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return append(ops, op{kind: map[uintptr]opKind{2: opU16, 4: opU32}[t.Size()], off: off})
	case reflect.Float32:
		return append(ops, op{kind: opU32, off: off})
	case reflect.Complex64:
		return append(ops, op{kind: opU32, off: off}, op{kind: opU32, off: off + 4})
	case reflect.String:
		return append(ops, op{kind: opString, off: off})
	case reflect.Slice:
		kind := opSlice
		if t.Elem().Kind() == reflect.Uint8 {
			kind = opBytes
		}
		return append(ops, op{kind: kind, off: off, elem: c.compile(t.Elem(), path+"[]"), typ: t})
	case reflect.Pointer:
		return append(ops, op{kind: opPtr, off: off, elem: c.compile(t.Elem(), path)})
	case reflect.Map:
		return append(ops, op{kind: opMap, off: off, key: c.compile(t.Key(), path+"[key]"),
			elem: c.compile(t.Elem(), path+"[]"), typ: t})
	}
	panic(fmt.Sprintf("digest: %s is a %v, not plain data (tag it `digest:\"-\"` or keep it outside the state struct)", path, t.Kind()))
}

// sliceHeader is the memory layout of every Go slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// hasher is one digest computation.
//
// The mixing is FNV-1a lifted to 64-bit words, in four interleaved lanes:
// word i of the stream goes to lane i mod 4, and sum folds the lanes into
// one word. Each lane step is a bijection of the lane, so changing any one
// word always changes the digest; the lanes let the multiply chains of
// consecutive words overlap, which is what brings a raw run to memory
// speed. A digest is only ever compared with digests of the same process's
// values, so the exact function is free to favor speed.
type hasher struct {
	lanes [4]uint64
	n     int // words mixed so far
}

func newHasher() hasher {
	return hasher{lanes: [4]uint64{fnvOffset64, fnvOffset64 + 1, fnvOffset64 + 2, fnvOffset64 + 3}}
}

func (d *hasher) word(w uint64) {
	l := &d.lanes[d.n&3]
	*l = (*l ^ w) * fnvPrime64
	d.n++
}

// sum folds the lanes into the digest.
func (d *hasher) sum() uint64 {
	h := uint64(fnvOffset64)
	for _, l := range d.lanes {
		h = (h ^ l) * fnvPrime64
	}
	return h
}

// words hashes n raw words starting at p.
func (d *hasher) words(p unsafe.Pointer, n int) {
	ws := unsafe.Slice((*uint64)(p), n)
	for len(ws) > 0 && d.n&3 != 0 {
		d.word(ws[0])
		ws = ws[1:]
	}
	a, b, c, e := d.lanes[0], d.lanes[1], d.lanes[2], d.lanes[3]
	d.n += len(ws) &^ 3
	for ; len(ws) >= 4; ws = ws[4:] {
		a = (a ^ ws[0]) * fnvPrime64
		b = (b ^ ws[1]) * fnvPrime64
		c = (c ^ ws[2]) * fnvPrime64
		e = (e ^ ws[3]) * fnvPrime64
	}
	d.lanes = [4]uint64{a, b, c, e}
	for _, w := range ws {
		d.word(w)
	}
}

// image hashes a byte image: its length, then 8 bytes per little-endian
// word, the last one zero-padded.
func (d *hasher) image(b []byte) {
	d.word(uint64(len(b)))
	for len(b) >= 8 && d.n&3 != 0 {
		d.word(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	a, c, e, f := d.lanes[0], d.lanes[1], d.lanes[2], d.lanes[3]
	d.n += len(b) / 32 * 4
	for ; len(b) >= 32; b = b[32:] {
		a = (a ^ binary.LittleEndian.Uint64(b)) * fnvPrime64
		c = (c ^ binary.LittleEndian.Uint64(b[8:])) * fnvPrime64
		e = (e ^ binary.LittleEndian.Uint64(b[16:])) * fnvPrime64
		f = (f ^ binary.LittleEndian.Uint64(b[24:])) * fnvPrime64
	}
	d.lanes = [4]uint64{a, c, e, f}
	for ; len(b) >= 8; b = b[8:] {
		d.word(binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		d.word(binary.LittleEndian.Uint64(tail[:]))
	}
}

// run hashes the value of p's type stored at base.
func (d *hasher) run(p *plan, base unsafe.Pointer) {
	if p.raw {
		d.words(base, int(p.size/8))
		return
	}
	for i := range p.ops {
		o := &p.ops[i]
		at := unsafe.Add(base, o.off)
		switch o.kind {
		case opWords:
			d.words(at, o.n)
		case opU8:
			d.word(uint64(*(*uint8)(at)))
		case opU16:
			d.word(uint64(*(*uint16)(at)))
		case opU32:
			d.word(uint64(*(*uint32)(at)))
		case opI8:
			d.word(uint64(*(*int8)(at)))
		case opI16:
			d.word(uint64(*(*int16)(at)))
		case opI32:
			d.word(uint64(*(*int32)(at)))
		case opString:
			s := *(*string)(at)
			d.image(unsafe.Slice(unsafe.StringData(s), len(s)))
		case opBytes:
			if s := (*sliceHeader)(at); s.data == nil {
				d.word(tagNil)
			} else {
				d.word(tagSeq)
				d.image(unsafe.Slice((*byte)(s.data), s.len))
			}
		case opSlice:
			s := (*sliceHeader)(at)
			if s.data == nil {
				d.word(tagNil)
				continue
			}
			d.word(tagSeq)
			d.word(uint64(s.len))
			d.seq(o.elem, s.data, s.len)
		case opArray:
			d.seq(o.elem, at, o.n)
		case opPtr:
			target := *(*unsafe.Pointer)(at)
			if target == nil {
				d.word(tagNil)
				continue
			}
			d.word(tagPtr)
			d.run(o.elem, target)
		case opMap:
			d.mapEntries(o, *(*unsafe.Pointer)(at))
		}
	}
}

// seq hashes n consecutive elements starting at data.
func (d *hasher) seq(elem *plan, data unsafe.Pointer, n int) {
	if elem.raw {
		d.words(data, n*int(elem.size/8))
		return
	}
	for i := 0; i < n; i++ {
		d.run(elem, unsafe.Add(data, uintptr(i)*elem.size))
	}
}

// sortedEntries copies a map's keys and values out into slices, where the
// plans can address them, and returns them with the entry order: ascending
// key digest.
func sortedEntries(o *op, m reflect.Value) (keys, vals reflect.Value, order []keyed) {
	n := m.Len()
	keys = reflect.MakeSlice(reflect.SliceOf(o.typ.Key()), n, n)
	vals = reflect.MakeSlice(reflect.SliceOf(o.typ.Elem()), n, n)
	order = make([]keyed, 0, n)
	for it := m.MapRange(); it.Next(); {
		i := len(order)
		keys.Index(i).SetIterKey(it)
		vals.Index(i).SetIterValue(it)
		kd := newHasher()
		kd.run(o.key, unsafe.Add(keys.UnsafePointer(), uintptr(i)*o.key.size))
		order = append(order, keyed{kd.sum(), i})
	}
	sort.Slice(order, func(a, b int) bool { return order[a].kd < order[b].kd })
	return keys, vals, order
}

// keyed is one map entry's key digest and its index in sortedEntries'
// slices.
type keyed struct {
	kd uint64
	i  int
}

// mapEntries hashes the map m in ascending order of key digest. Like
// copyMap it takes the map by value, keeping reflect off the hashed memory.
func (d *hasher) mapEntries(o *op, m unsafe.Pointer) {
	if m == nil {
		d.word(tagNil)
		return
	}
	mp := m
	_, vals, order := sortedEntries(o, reflect.NewAt(o.typ, unsafe.Pointer(&mp)).Elem())
	d.word(tagMap)
	d.word(uint64(len(order)))
	for _, e := range order {
		d.word(e.kd)
		d.run(o.elem, unsafe.Add(vals.UnsafePointer(), uintptr(e.i)*o.elem.size))
	}
}

// memmove copies n bytes of pointer-free memory.
func memmove(dst, src unsafe.Pointer, n uintptr) {
	if n > 0 {
		copy(unsafe.Slice((*byte)(dst), n), unsafe.Slice((*byte)(src), n))
	}
}

// copyRun copies the value of p's type at src over the one at dst.
func copyRun(p *plan, dst, src unsafe.Pointer) {
	if p.flat {
		memmove(dst, src, p.size)
		return
	}
	for i := range p.ops {
		o := &p.ops[i]
		d, s := unsafe.Add(dst, o.off), unsafe.Add(src, o.off)
		switch o.kind {
		case opWords:
			memmove(d, s, uintptr(o.n)*8)
		case opU8, opU16, opU32, opI8, opI16, opI32:
			memmove(d, s, leafBytes[o.kind])
		case opString:
			*(*string)(d) = *(*string)(s)
		case opBytes, opSlice:
			copySlice(o, (*sliceHeader)(d), (*sliceHeader)(s))
		case opArray:
			copySeq(o.elem, d, s, o.n)
		case opPtr:
			sp := *(*unsafe.Pointer)(s)
			if sp == nil {
				*(*unsafe.Pointer)(d) = nil
				continue
			}
			dp := *(*unsafe.Pointer)(d)
			if dp == nil {
				dp = reflect.New(o.elem.typ).UnsafePointer()
				*(*unsafe.Pointer)(d) = dp
			}
			copyRun(o.elem, dp, sp)
		case opMap:
			*(*unsafe.Pointer)(d) = copyMap(o, *(*unsafe.Pointer)(d), *(*unsafe.Pointer)(s))
		}
	}
}

// copySeq copies n consecutive elements.
func copySeq(elem *plan, dst, src unsafe.Pointer, n int) {
	if elem.flat {
		memmove(dst, src, uintptr(n)*elem.size)
		return
	}
	for i := 0; i < n; i++ {
		off := uintptr(i) * elem.size
		copyRun(elem, unsafe.Add(dst, off), unsafe.Add(src, off))
	}
}

// copySlice copies a slice into dst's backing array when its capacity
// holds the source's length, reusing the elements' own storage too.
func copySlice(o *op, dst, src *sliceHeader) {
	if src.data == nil {
		*dst = sliceHeader{}
		return
	}
	if dst.data == nil || dst.cap < src.len {
		*dst = sliceHeader{reflect.MakeSlice(o.typ, src.len, src.len).UnsafePointer(), src.len, src.len}
	} else {
		dst.len = src.len
	}
	copySeq(o.elem, dst.data, src.data, src.len)
}

// copyMap makes the map dm hold sm's entries, copying each value over dm's
// value for the same key, and returns the (possibly new) map. It takes the
// maps by value, so reflect never sees the memory Copy was handed.
func copyMap(o *op, dm, sm unsafe.Pointer) unsafe.Pointer {
	if sm == nil {
		return nil
	}
	dmap, smap := dm, sm // addressed below, so moved to the heap: only on this path
	dst := reflect.NewAt(o.typ, unsafe.Pointer(&dmap)).Elem()
	src := reflect.NewAt(o.typ, unsafe.Pointer(&smap)).Elem()
	if dst.IsNil() {
		dst.Set(reflect.MakeMapWithSize(o.typ, src.Len()))
	}
	for it := dst.MapRange(); it.Next(); {
		if !src.MapIndex(it.Key()).IsValid() {
			dst.SetMapIndex(it.Key(), reflect.Value{})
		}
	}
	val := reflect.New(o.typ.Elem()).Elem()
	from := reflect.New(o.typ.Elem()).Elem()
	for it := src.MapRange(); it.Next(); {
		val.SetZero()
		if cur := dst.MapIndex(it.Key()); cur.IsValid() {
			val.Set(cur)
		}
		from.SetIterValue(it)
		copyRun(o.elem, val.Addr().UnsafePointer(), from.Addr().UnsafePointer())
		dst.SetMapIndex(it.Key(), val)
	}
	return dmap
}
