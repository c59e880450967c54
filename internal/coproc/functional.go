package coproc

import (
	"fmt"
	"math"

	"occamy/internal/isa"
)

// applyFunctional performs the value semantics over the active lanes. The
// opcode is decoded once per instruction; each case then runs a plain loop
// over the active prefix of the register rows (a destination may alias a
// source: every lane reads its operands before writing its result). Vector
// loads and stores move the whole active range through Memory's page-wise
// accessors.
func (cp *Coproc) applyFunctional(x *XInst, st *coreState) {
	n := x.Active
	z := st.z
	switch x.Op {
	case isa.OpVLoad:
		cp.data.ReadF32s(x.Addr, z[x.Dst][:n])
	case isa.OpVStore:
		cp.data.WriteF32s(x.Addr, z[x.Dst][:n])
	case isa.OpVDupI:
		fill(z[x.Dst][:n], x.FImm)
	case isa.OpVDupX:
		fill(z[x.Dst][:n], math.Float32frombits(x.Val))
	case isa.OpVInsX0:
		z[x.Dst][0] = math.Float32frombits(x.Val)
		if n > 1 {
			clear(z[x.Dst][1:n])
		}
	case isa.OpVMovX0:
		x.respVal = uint64(math.Float32bits(z[x.Src1][0]))
	case isa.OpVFAddV:
		var sum float32
		for _, v := range z[x.Src1][:n] {
			sum += v
		}
		z[x.Dst][0] = sum
		if n > 1 {
			clear(z[x.Dst][1:n])
		}
	case isa.OpVFMla:
		d, a, b := z[x.Dst][:n], z[x.Src1][:n], z[x.Src2][:n]
		for i := range d {
			d[i] += a[i] * b[i]
		}
	case isa.OpVFNeg, isa.OpVFAbs, isa.OpVFSqrt:
		unLanes(x.Op, z[x.Dst][:n], z[x.Src1][:n])
	default:
		binLanes(x.Op, z[x.Dst][:n], z[x.Src1][:n], z[x.Src2][:n])
	}
}

func fill(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

// unLanes sets dst[i] = op(a[i]) for a unary vector op.
func unLanes(op isa.Opcode, dst, a []float32) {
	switch op {
	case isa.OpVFNeg:
		lanes1(dst, a, func(v float32) float32 { return -v })
	case isa.OpVFAbs:
		lanes1(dst, a, func(v float32) float32 { return float32(math.Abs(float64(v))) })
	case isa.OpVFSqrt:
		lanes1(dst, a, func(v float32) float32 { return float32(math.Sqrt(float64(v))) })
	default:
		panic(fmt.Sprintf("coproc: bad unary op %s", op))
	}
}

// binLanes sets dst[i] = a[i] op b[i] for a binary vector op. The integer
// ops go through isa.IntBinFn lane by lane: it is the one definition of the
// int32 lane semantics, shared with the scalar core and the host reference.
func binLanes(op isa.Opcode, dst, a, b []float32) {
	switch op {
	case isa.OpVFAdd:
		lanes2(dst, a, b, func(x, y float32) float32 { return x + y })
	case isa.OpVFSub:
		lanes2(dst, a, b, func(x, y float32) float32 { return x - y })
	case isa.OpVFMul:
		lanes2(dst, a, b, func(x, y float32) float32 { return x * y })
	case isa.OpVFDiv:
		lanes2(dst, a, b, func(x, y float32) float32 { return x / y })
	case isa.OpVFMax:
		lanes2(dst, a, b, func(x, y float32) float32 { return float32(math.Max(float64(x), float64(y))) })
	case isa.OpVFMin:
		lanes2(dst, a, b, func(x, y float32) float32 { return float32(math.Min(float64(x), float64(y))) })
	default:
		for i := range dst {
			v, ok := isa.IntBinFn(op, a[i], b[i])
			if !ok {
				panic(fmt.Sprintf("coproc: bad binary op %s", op))
			}
			dst[i] = v
		}
	}
}

// The lane loops below are small enough to inline, and the compiler then
// inlines the function literal each call site passes: every floating-point
// case compiles to a straight loop with no per-lane call.

func lanes1(dst, a []float32, f func(float32) float32) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = f(a[i])
	}
}

func lanes2(dst, a, b []float32, f func(x, y float32) float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = f(a[i], b[i])
	}
}
