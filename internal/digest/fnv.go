package digest

// FNV builds an FNV-64a digest from typed values, so every caller packs
// fields the same way: an integer is its 8 little-endian bytes and a bool
// the integer 0 or 1. The zero value is not ready; start from NewFNV.
type FNV struct{ h uint64 }

// NewFNV returns an empty builder.
func NewFNV() FNV { return FNV{fnvOffset64} }

// U64 folds values in order.
func (d *FNV) U64(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.h = (d.h ^ v>>(8*i)&0xff) * fnvPrime64
		}
	}
}

// I64 folds signed values.
func (d *FNV) I64(vs ...int64) {
	for _, v := range vs {
		d.U64(uint64(v))
	}
}

// Bool folds a flag.
func (d *FNV) Bool(b bool) {
	if b {
		d.U64(1)
	} else {
		d.U64(0)
	}
}

// Bytes folds raw bytes, with no length prefix.
func (d *FNV) Bytes(b []byte) {
	for _, c := range b {
		d.h = (d.h ^ uint64(c)) * fnvPrime64
	}
}

// Sum returns the digest; the builder remains usable.
func (d *FNV) Sum() uint64 { return d.h }
