package coproc

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"occamy/internal/isa"
	"occamy/internal/mem"
)

// unFn and binFn are the per-lane scalar semantics of the unary and binary
// vector ops: the oracle the lane kernels of applyFunctional must match.
func unFn(op isa.Opcode, v float32) float32 {
	switch op {
	case isa.OpVFNeg:
		return -v
	case isa.OpVFAbs:
		return float32(math.Abs(float64(v)))
	case isa.OpVFSqrt:
		return float32(math.Sqrt(float64(v)))
	}
	panic("coproc: bad unary op")
}

func binFn(op isa.Opcode, a, b float32) float32 {
	switch op {
	case isa.OpVFAdd:
		return a + b
	case isa.OpVFSub:
		return a - b
	case isa.OpVFMul:
		return a * b
	case isa.OpVFDiv:
		return a / b
	case isa.OpVFMax:
		return float32(math.Max(float64(a), float64(b)))
	case isa.OpVFMin:
		return float32(math.Min(float64(a), float64(b)))
	}
	if out, ok := isa.IntBinFn(op, a, b); ok {
		return out
	}
	panic(fmt.Sprintf("coproc: bad binary op %s", op))
}

// applyPerLane is the lane-at-a-time value semantics: one binFn/unFn call
// and one ReadF32/WriteF32 per active lane.
func applyPerLane(x *XInst, z [][]float32, m *mem.Memory) {
	active := x.Active
	switch x.Op {
	case isa.OpVLoad:
		for i := 0; i < active; i++ {
			z[x.Dst][i] = m.ReadF32(x.Addr + uint64(4*i))
		}
	case isa.OpVStore:
		for i := 0; i < active; i++ {
			m.WriteF32(x.Addr+uint64(4*i), z[x.Dst][i])
		}
	case isa.OpVDupI:
		for i := 0; i < active; i++ {
			z[x.Dst][i] = x.FImm
		}
	case isa.OpVDupX:
		for i := 0; i < active; i++ {
			z[x.Dst][i] = math.Float32frombits(x.Val)
		}
	case isa.OpVInsX0:
		z[x.Dst][0] = math.Float32frombits(x.Val)
		for i := 1; i < active; i++ {
			z[x.Dst][i] = 0
		}
	case isa.OpVMovX0:
		x.respVal = uint64(math.Float32bits(z[x.Src1][0]))
	case isa.OpVFAddV:
		var sum float32
		for i := 0; i < active; i++ {
			sum += z[x.Src1][i]
		}
		z[x.Dst][0] = sum
		for i := 1; i < active; i++ {
			z[x.Dst][i] = 0
		}
	case isa.OpVFNeg, isa.OpVFAbs, isa.OpVFSqrt:
		for i := 0; i < active; i++ {
			z[x.Dst][i] = unFn(x.Op, z[x.Src1][i])
		}
	case isa.OpVFMla:
		for i := 0; i < active; i++ {
			z[x.Dst][i] += z[x.Src1][i] * z[x.Src2][i]
		}
	default:
		for i := 0; i < active; i++ {
			z[x.Dst][i] = binFn(x.Op, z[x.Src1][i], z[x.Src2][i])
		}
	}
}

// specialLanes are the IEEE-754 edge cases every kernel must propagate
// bit-exactly, plus ordinary values and integer lane patterns (shift counts
// beyond 31, negative int32s) for the integer ops.
var specialLanes = []float32{
	float32(math.NaN()),
	math.Float32frombits(0xffc00001), // negative quiet NaN with a payload
	math.Float32frombits(0x7f800001), // signaling NaN
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	0,
	float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32,
	-math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), // largest subnormal
	math.MaxFloat32,
	-math.MaxFloat32,
	1,
	-2.5,
	0.1,
	3e-20,
	isa.IntBits(-7),
	isa.IntBits(33),
	isa.IntBits(math.MaxInt32),
	isa.IntBits(math.MinInt32),
}

// TestLaneKernelsMatchPerLane runs every vector opcode through
// applyFunctional and through the per-lane oracle on identical register
// files and memories, and requires bit-identical registers, memory and
// scalar responses. Compute operands pair every special lane value with
// every other one (including itself) and the destination aliases each
// source in turn; loads and stores run at aligned, page-crossing, absent-page
// and page-straddling addresses. The active prefix covers the predicated-off,
// single-lane, partial and full cases.
func TestLaneKernelsMatchPerLane(t *testing.T) {
	lanes := DefaultConfig(2).Lanes()
	if lanes < len(specialLanes) {
		t.Fatalf("%d lanes cannot hold the %d special values", lanes, len(specialLanes))
	}
	const page = 1 << 16
	addrs := []uint64{
		4 * page,                   // start of a populated page
		5*page - 8,                 // runs on into an absent page
		9*page + 12,                // inside an absent page
		7*page - uint64(lanes) - 2, // unaligned: an element straddles into an absent page
		4*page - 6,                 // unaligned: an element straddles out of an absent page
	}
	regs := []struct{ dst, src1, src2 isa.Reg }{
		{3, 1, 2}, // distinct
		{1, 1, 2}, // dst aliases src1
		{2, 1, 2}, // dst aliases src2
		{3, 1, 1}, // src1 == src2
	}
	isMem := func(op isa.Opcode) bool { return op == isa.OpVLoad || op == isa.OpVStore }
	check := func(x XInst, shift int) {
		t.Helper()
		zGot, zWant := laneRegs(lanes, shift), laneRegs(lanes, shift)
		mGot, mWant := mem.NewMemory(), mem.NewMemory()
		if isMem(x.Op) {
			mGot, mWant = laneMemory(page), laneMemory(page)
		}
		xGot, xWant := x, x
		cp := &Coproc{data: mGot}
		cp.applyFunctional(&xGot, &coreState{z: zGot})
		applyPerLane(&xWant, zWant, mWant)
		where := fmt.Sprintf("%s active=%d shift=%d z%d=f(z%d,z%d) addr=%#x",
			x.Op, x.Active, shift, x.Dst, x.Src1, x.Src2, x.Addr)
		for reg := range zWant {
			for i := range zWant[reg] {
				if g, w := math.Float32bits(zGot[reg][i]), math.Float32bits(zWant[reg][i]); g != w {
					t.Fatalf("%s: z%d[%d] = %#08x, want %#08x", where, reg, i, g, w)
				}
			}
		}
		if xGot.respVal != xWant.respVal {
			t.Fatalf("%s: response %#x, want %#x", where, xGot.respVal, xWant.respVal)
		}
		if !reflect.DeepEqual(mGot.Snapshot(), mWant.Snapshot()) {
			t.Fatalf("%s: memory differs from the per-lane path", where)
		}
	}
	for op := isa.OpVDupI; op <= isa.OpVStore; op++ {
		for _, active := range []int{0, 1, 3, lanes} {
			if isMem(op) {
				for _, addr := range addrs {
					check(XInst{Op: op, Dst: 1, Active: active, Addr: addr}, 0)
				}
				continue
			}
			for shift := range specialLanes {
				for _, r := range regs {
					check(XInst{Op: op, Dst: r.dst, Src1: r.src1, Src2: r.src2, Active: active,
						FImm: specialLanes[shift], Val: math.Float32bits(specialLanes[(shift+1)%len(specialLanes)])}, shift)
				}
			}
		}
	}
}

// laneRegs builds a register file whose registers 1 and 2 hold the special
// values, register 2 rotated by shift against register 1, and whose other
// registers hold a recognizable pattern (so a write past the active prefix
// shows).
func laneRegs(lanes, shift int) [][]float32 {
	z := make([][]float32, isa.NumZRegs)
	for r := range z {
		z[r] = make([]float32, lanes)
		for i := range z[r] {
			switch r {
			case 1:
				z[r][i] = specialLanes[i%len(specialLanes)]
			case 2:
				z[r][i] = specialLanes[(i+shift)%len(specialLanes)]
			default:
				z[r][i] = float32(100*r + i)
			}
		}
	}
	return z
}

// laneMemory populates pages 4 and 6 with the special values; every other
// page is absent.
func laneMemory(page int) *mem.Memory {
	m := mem.NewMemory()
	for _, p := range []int{4, 6} {
		m.FillF32(uint64(p*page), page/4, func(i int) float32 { return specialLanes[i%len(specialLanes)] })
	}
	return m
}
