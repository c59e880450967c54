package arch

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"unsafe"
)

// This file gives SystemState a content digest: FNV-1a lifted to 64-bit
// words over a deterministic word stream of the entire reachable snapshot.
// Checkpoint stamps the digest at capture time and RestoreCheckpoint
// recomputes and compares it (through Verify) before touching any
// component, so a snapshot that was corrupted while cached or parked (Elzar's
// silent-state-corruption frame: a bit flip must never become a wrong
// answer) is rejected with a typed error and the target system is left
// exactly as it was — free to fall back to a cold run.
//
// The word stream is defined leaf by leaf, so a reflective walker can
// reproduce it (digest_test.go keeps one as the oracle):
//
//   - a scalar is one word: its bits for 8-byte integers and float64,
//     sign- or zero-extended for narrower integers, the raw byte for a bool,
//     the raw bits for a float32; a complex number is its two parts;
//   - a byte image (a string or a []byte) is its length, then its bytes
//     8 per little-endian word, the last word zero-padded;
//   - a struct is its fields in declaration order, an array its elements;
//     neither adds a word, since their shape is static;
//   - shape words carry the rest: a nil slice, map or pointer is tagNil; a
//     slice is tagSeq, its length and its elements; a pointer is tagPtr and,
//     on the first visit of that (address, type), its target, which keeps
//     the walk cycle-safe; a map is tagMap, its length and, in ascending
//     order of key digest, each key's digest and value; an interface is
//     tagIface, its dynamic type's name and its value; a func, chan or
//     unsafe.Pointer is only 0 or 1 for nil or not.
//
// The digest is complete by construction: a field added to any component's
// checkpoint is hashed with no code to write. Reflection runs once per type:
// compile turns a type into a plan of field offsets and kinds, cached for
// the process, and the digest runs the plan over the snapshot's memory
// through unsafe.Add and unsafe.Slice (confined to this file). Runs of
// pointer-free, padding-free 8-byte leaves — a 64-bit field, a struct or
// array of them, the whole cache tag array — hash as raw words at memory
// speed; byte images hash at slice speed. A struct with padding is hashed
// field by field, so its padding bytes, whose content Go leaves
// unspecified, never reach the digest.

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
	tagIface
)

// CorruptCheckpointError is the typed error RestoreCheckpoint returns when a
// snapshot's recomputed content digest does not match the digest stamped at
// Checkpoint time. The restore is refused in full: no component state was
// modified. Callers holding a cache treat this as "evict and run cold" —
// degraded, never wrong.
type CorruptCheckpointError struct {
	// Cycle is the cycle the snapshot claims to have been taken at.
	Cycle uint64
	// Want is the digest stamped at Checkpoint time; Got is the digest of
	// the snapshot as presented for restore.
	Want, Got uint64
}

func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("arch: checkpoint integrity failure: snapshot at cycle %d digests to %016x, stamped %016x (refusing to restore)",
		e.Cycle, e.Got, e.Want)
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
	opBytes                // nil or tagSeq and the byte image of a []byte
	opSlice                // nil or tagSeq, length and elements
	opArray                // n elements of a padded element type
	opPtr                  // nil or tagPtr and, on first visit, the target
	opMap                  // nil or tagMap, length and sorted entries
	opIface                // nil or tagIface, type name and value
	opOpaque               // func, chan, unsafe.Pointer: 0 or 1
)

// op is one step of a plan.
type op struct {
	kind opKind
	off  uintptr
	n    int          // opWords: word count; opArray: length
	elem *plan        // opSlice, opArray, opPtr: element; opMap: value
	key  *plan        // opMap: key
	typ  reflect.Type // opPtr: pointer type (the visit key); opMap, opIface: field type
}

// plan hashes one type: either size/8 raw words, or its steps in order.
type plan struct {
	size uintptr
	raw  bool
	ops  []op
}

// plans caches one plan per type. Plans are immutable once compile returns,
// so a digest runs them without the lock.
var plans struct {
	sync.Mutex
	m map[reflect.Type]*plan
}

// planOf returns t's plan, compiling it on first use.
func planOf(t reflect.Type) *plan {
	plans.Lock()
	defer plans.Unlock()
	if plans.m == nil {
		plans.m = make(map[reflect.Type]*plan)
	}
	return compile(t)
}

// compile returns t's plan; the caller holds plans. A plan is registered
// before its steps are filled in, so a recursive type reached again through
// a pointer, slice or map links to the plan being built.
func compile(t reflect.Type) *plan {
	if p := plans.m[t]; p != nil {
		return p
	}
	p := &plan{size: t.Size(), raw: rawWords(t)}
	plans.m[t] = p
	if !p.raw {
		p.ops = appendOps(nil, t, 0)
	}
	return p
}

// rawWords reports whether a t is nothing but 8-byte integer and float
// leaves with no padding, so its memory is its word stream.
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
			if f.Offset != end || !rawWords(f.Type) {
				return false
			}
			end += f.Type.Size()
		}
		return end == t.Size()
	}
	return false
}

// appendOps appends the steps that hash a t stored at off. Nested structs
// are flattened into the caller's steps so adjacent raw fields merge into
// one opWords run across struct boundaries.
func appendOps(ops []op, t reflect.Type, off uintptr) []op {
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
			f := t.Field(i)
			ops = appendOps(ops, f.Type, off+f.Offset)
		}
		return ops
	case reflect.Array:
		return append(ops, op{kind: opArray, off: off, n: t.Len(), elem: compile(t.Elem())})
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
		if t.Elem().Kind() == reflect.Uint8 {
			return append(ops, op{kind: opBytes, off: off})
		}
		return append(ops, op{kind: opSlice, off: off, elem: compile(t.Elem())})
	case reflect.Pointer:
		return append(ops, op{kind: opPtr, off: off, elem: compile(t.Elem()), typ: t})
	case reflect.Map:
		return append(ops, op{kind: opMap, off: off, key: compile(t.Key()), elem: compile(t.Elem()), typ: t})
	case reflect.Interface:
		return append(ops, op{kind: opIface, off: off, typ: t})
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		// Not data: hash presence only. Checkpoint states are plain data
		// today; if one ever carries a closure, its identity is
		// configuration, not state.
		return append(ops, op{kind: opOpaque, off: off})
	}
	panic(fmt.Sprintf("arch: snapshot digest: unhashable kind %v", t.Kind()))
}

// hasher is one digest computation: the mixing state plus the pointers
// already followed.
//
// The mixing is FNV-1a lifted to 64-bit words, in four interleaved lanes:
// word i of the stream goes to lane i mod 4, and sum folds the lanes into
// one word. Each lane step is a bijection of the lane, so changing any one
// word always changes the digest; the lanes let the multiply chains of
// consecutive words overlap, which is what brings a raw run to memory
// speed. The digest only ever lives next to the snapshot it stamps (the
// in-process checkpoint cache, a parked job), so the exact function is free
// to favor speed: verification is paid on every cache load and every
// sweep-point fork.
type hasher struct {
	lanes   [4]uint64
	n       int // words mixed so far
	visited map[visitKey]struct{}
}

type visitKey struct {
	ptr unsafe.Pointer
	typ reflect.Type
}

// sliceHeader is the memory layout of every Go slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
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
			if b := *(*[]byte)(at); b == nil {
				d.word(tagNil)
			} else {
				d.word(tagSeq)
				d.image(b)
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
			key := visitKey{target, o.typ}
			if _, seen := d.visited[key]; seen {
				continue
			}
			if d.visited == nil {
				d.visited = make(map[visitKey]struct{})
			}
			d.visited[key] = struct{}{}
			d.run(o.elem, target)
		case opMap:
			d.mapEntries(o, reflect.NewAt(o.typ, at).Elem())
		case opIface:
			d.iface(reflect.NewAt(o.typ, at).Elem())
		case opOpaque:
			if *(*unsafe.Pointer)(at) == nil {
				d.word(0)
			} else {
				d.word(1)
			}
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

// mapEntries hashes a map in ascending order of key digest. Keys and values
// are copied out of the map into slices, where the plans can address them.
func (d *hasher) mapEntries(o *op, m reflect.Value) {
	if m.IsNil() {
		d.word(tagNil)
		return
	}
	n := m.Len()
	keys := reflect.MakeSlice(reflect.SliceOf(o.typ.Key()), n, n)
	vals := reflect.MakeSlice(reflect.SliceOf(o.typ.Elem()), n, n)
	type entry struct {
		kd uint64
		i  int
	}
	order := make([]entry, 0, n)
	for it := m.MapRange(); it.Next(); {
		i := len(order)
		keys.Index(i).SetIterKey(it)
		vals.Index(i).SetIterValue(it)
		kd := newHasher()
		kd.run(o.key, unsafe.Add(keys.UnsafePointer(), uintptr(i)*o.key.size))
		order = append(order, entry{kd.sum(), i})
	}
	sort.Slice(order, func(a, b int) bool { return order[a].kd < order[b].kd })
	d.word(tagMap)
	d.word(uint64(n))
	for _, e := range order {
		d.word(e.kd)
		d.run(o.elem, unsafe.Add(vals.UnsafePointer(), uintptr(e.i)*o.elem.size))
	}
}

// iface hashes an interface through its dynamic type's plan, run over a
// copy of the value.
func (d *hasher) iface(v reflect.Value) {
	if v.IsNil() {
		d.word(tagNil)
		return
	}
	dyn := v.Elem()
	d.word(tagIface)
	name := dyn.Type().String()
	d.image(unsafe.Slice(unsafe.StringData(name), len(name)))
	tmp := reflect.New(dyn.Type())
	tmp.Elem().Set(dyn)
	d.run(planOf(dyn.Type()), tmp.UnsafePointer())
}

// computeDigest hashes the snapshot's content: every field but the stamp.
func (st *SystemState) computeDigest() uint64 {
	d := newHasher()
	d.run(planOf(reflect.TypeFor[stateContent]()), unsafe.Pointer(&st.stateContent))
	return d.sum()
}

// Digest returns the content digest stamped when the snapshot was captured.
// It is content-addressed: two snapshots of identical machine state digest
// identically, regardless of which (identically built) System captured them.
func (st *SystemState) Digest() uint64 { return st.digest }

// Verify recomputes the snapshot's content digest and compares it with the
// stamp, returning a *CorruptCheckpointError on mismatch. RestoreCheckpoint
// calls this before touching any component; callers that hold snapshots in a
// cache can also verify eagerly (e.g. on insert) without a target system.
func (st *SystemState) Verify() error {
	if got := st.computeDigest(); got != st.digest {
		return &CorruptCheckpointError{Cycle: st.engine.Cycle(), Want: st.digest, Got: got}
	}
	return nil
}

// Tamper flips one bit of the L2 tag array in the snapshot — deterministic
// simulated memory corruption of the bulk, raw-word part of a checkpoint,
// for integrity tests and the serve layer's fault-injection endpoints. A
// tampered snapshot fails Verify and is refused by RestoreCheckpoint;
// tampering twice restores it.
func (st *SystemState) Tamper() { st.hier.L2.Corrupt() }
