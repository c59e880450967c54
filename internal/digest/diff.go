package digest

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"unsafe"
)

// Diff returns the path of the first place *a and *b differ, in the word
// stream's order — a field path like cplx.rows[1].lhq.releases[3],
// with embedded structs left out as Go's field promotion leaves them out —
// or "" when they are equal. It compares exactly what Sum hashes (padding
// and skipped fields excluded, floats by their bits, nil distinct from
// empty), so Diff(a, b) == "" exactly when Sum(a) == Sum(b) barring a
// 64-bit collision. A difference at the root itself (a scalar T, or a
// nil-ness or length mismatch of a root slice) is reported as "(root)".
func Diff[T any](a, b *T) string {
	path, differ := diff(reflect.TypeOf(a).Elem(), unsafe.Pointer(a), unsafe.Pointer(b))
	if !differ {
		return ""
	}
	if len(path) == 0 {
		return "(root)"
	}
	var sb strings.Builder
	for i := len(path) - 1; i >= 0; i-- {
		sb.WriteString(path[i])
	}
	return strings.TrimPrefix(sb.String(), ".")
}

// diff compares the t values at a and b. On a difference it returns the
// path segments from the difference up to t, innermost first.
func diff(t reflect.Type, a, b unsafe.Pointer) ([]string, bool) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if skipped(f) {
				continue
			}
			if path, differ := diff(f.Type, unsafe.Add(a, f.Offset), unsafe.Add(b, f.Offset)); differ {
				if !f.Anonymous {
					path = append(path, "."+f.Name)
				}
				return path, true
			}
		}
		return nil, false
	case reflect.Array:
		return diffSeq(t.Elem(), a, b, t.Len())
	case reflect.String:
		return nil, *(*string)(a) != *(*string)(b)
	case reflect.Slice:
		sa, sb := (*sliceHeader)(a), (*sliceHeader)(b)
		if (sa.data == nil) != (sb.data == nil) || sa.len != sb.len {
			return nil, true
		}
		if t.Elem().Kind() == reflect.Uint8 {
			ba, bb := unsafe.Slice((*byte)(sa.data), sa.len), unsafe.Slice((*byte)(sb.data), sb.len)
			if bytes.Equal(ba, bb) {
				return nil, false
			}
			i := 0
			for ba[i] == bb[i] {
				i++
			}
			return []string{fmt.Sprintf("[%d]", i)}, true
		}
		return diffSeq(t.Elem(), sa.data, sb.data, sa.len)
	case reflect.Pointer:
		pa, pb := *(*unsafe.Pointer)(a), *(*unsafe.Pointer)(b)
		if pa == nil || pb == nil {
			return nil, (pa == nil) != (pb == nil)
		}
		return diff(t.Elem(), pa, pb)
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		n := t.Size()
		return nil, !bytes.Equal(unsafe.Slice((*byte)(a), n), unsafe.Slice((*byte)(b), n))
	}
	panic(fmt.Sprintf("digest: %v is a %v, not plain data", t, t.Kind()))
}

// diffSeq compares n consecutive elements.
func diffSeq(elem reflect.Type, a, b unsafe.Pointer, n int) ([]string, bool) {
	for i := 0; i < n; i++ {
		off := uintptr(i) * elem.Size()
		if path, differ := diff(elem, unsafe.Add(a, off), unsafe.Add(b, off)); differ {
			return append(path, fmt.Sprintf("[%d]", i)), true
		}
	}
	return nil, false
}
