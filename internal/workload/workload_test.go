package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"occamy/internal/isa"
)

func TestEveryKernelValidates(t *testing.T) {
	r := NewRegistry()
	for _, name := range r.KernelNames() {
		if err := r.Kernel(name).Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestTable3_OperationalIntensities checks that the Eq. 5 oi_mem computed
// from each synthesized kernel's instruction mix reproduces the value
// published in Table 3 of the paper (within the quantization allowed by
// small integer instruction counts).
func TestTable3_OperationalIntensities(t *testing.T) {
	r := NewRegistry()
	for _, name := range r.KernelNames() {
		k := r.Kernel(name)
		if k.PublishedOI == 0 {
			continue // not a Table 3 kernel
		}
		got := k.OI().Mem
		if math.Abs(got-k.PublishedOI) > 0.042 {
			t.Errorf("%s: oi_mem = %.3f, published %.3f", name, got, k.PublishedOI)
		}
	}
}

func TestReuseKernelsHaveLowerIssueOI(t *testing.T) {
	// §7.4 Case 4: rho_eos2 has oi_issue 0.17 < oi_mem 0.25 due to reuse.
	r := NewRegistry()
	oi := r.OIOf("rho_eos2")
	if !(oi.Issue < oi.Mem) {
		t.Fatalf("rho_eos2 oi = %+v; want issue < mem", oi)
	}
	if math.Abs(oi.Issue-0.17) > 0.02 || math.Abs(oi.Mem-0.25) > 0.02 {
		t.Fatalf("rho_eos2 oi = %+v; want (0.17, 0.25)", oi)
	}
	// Kernels without reuse have equal intensities (Eq. 5 footnote).
	oi = r.OIOf("select_atoms1")
	if oi.Issue != oi.Mem {
		t.Fatalf("select_atoms1 oi = %+v; want issue == mem", oi)
	}
}

func TestKernelCountsDotProd(t *testing.T) {
	r := NewRegistry()
	k := r.Kernel("dotProd")
	if k.NumLoads() != 2 || k.NumStores() != 0 || k.NumCompute() != 2 {
		t.Fatalf("dotProd counts: loads=%d stores=%d compute=%d, want 2/0/2",
			k.NumLoads(), k.NumStores(), k.NumCompute())
	}
	if oi := k.OI(); oi.Mem != 0.25 {
		t.Fatalf("dotProd oi_mem = %v, want 0.25", oi.Mem)
	}
}

func TestKernelCountsNormL2Fused(t *testing.T) {
	r := NewRegistry()
	k := r.Kernel("normL2")
	if k.NumCompute() != 1 {
		t.Fatalf("normL2 fused compute count = %d, want 1 (VFMLA)", k.NumCompute())
	}
	if oi := k.OI(); oi.Mem != 0.25 {
		t.Fatalf("normL2 oi_mem = %v, want 0.25", oi.Mem)
	}
}

func TestStencilFootprintCountsStreamsOnce(t *testing.T) {
	r := NewRegistry()
	k := r.Kernel("wsm5_wi")
	if k.NumLoads() != 4 {
		t.Fatalf("wsm5_wi loads = %d, want 4", k.NumLoads())
	}
	if got := k.UniqueStreams(); got != 3 { // ww, dz, wi
		t.Fatalf("wsm5_wi unique streams = %d, want 3", got)
	}
	oi := k.OI()
	if !(oi.Issue < oi.Mem) {
		t.Fatalf("stencil kernel must have oi_issue < oi_mem, got %+v", oi)
	}
}

func TestReferenceDotProd(t *testing.T) {
	r := NewRegistry()
	k := r.Kernel("dotProd").copyWith(8, 1)
	in := map[int][]float32{
		0: make([]float32, 8+2*Halo),
		1: make([]float32, 8+2*Halo),
	}
	var want float32
	for i := 0; i < 8; i++ {
		in[0][i+Halo] = float32(i)
		in[1][i+Halo] = 2
		want += float32(i) * 2
	}
	_, acc := k.Reference(in)
	if acc != want {
		t.Fatalf("reference dot product = %v, want %v", acc, want)
	}
}

func TestReferenceAddWeight(t *testing.T) {
	r := NewRegistry()
	k := r.Kernel("addWeight").copyWith(4, 1)
	in := map[int][]float32{
		0: make([]float32, 4+2*Halo),
		1: make([]float32, 4+2*Halo),
	}
	for i := 0; i < 4; i++ {
		in[0][i+Halo] = float32(i)
		in[1][i+Halo] = float32(10 * i)
	}
	out, _ := k.Reference(in)
	for i := 0; i < 4; i++ {
		want := float32(i)*0.625 + float32(10*i)*0.375 + 0.5
		if got := out[2][i]; math.Abs(float64(got-want)) > 1e-5 {
			t.Fatalf("addWeight[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestReferenceStencilUsesOffsets(t *testing.T) {
	r := NewRegistry()
	k := r.Kernel("wsm5_wi").copyWith(4, 1)
	ww := make([]float32, 4+2*Halo)
	dz := make([]float32, 4+2*Halo)
	for i := range ww {
		ww[i] = float32(i)
		dz[i] = 1
	}
	out, _ := k.Reference(map[int][]float32{0: ww, 1: dz})
	// wi[k] = (ww[k] + ww[k-1]) / 2 when dz == 1 everywhere.
	for i := 0; i < 4; i++ {
		want := (ww[i+Halo] + ww[i+Halo-1]) / 2
		if got := out[2][i]; got != want {
			t.Fatalf("wi[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestReferenceRepeatsIdempotentForPureStores(t *testing.T) {
	// Store-only kernels are idempotent across repeats: repeating must not
	// change outputs (inputs are never written).
	r := NewRegistry()
	k1 := r.Kernel("rgb2gray").copyWith(16, 1)
	k2 := r.Kernel("rgb2gray").copyWith(16, 3)
	in := map[int][]float32{}
	for s := 0; s < 3; s++ {
		in[s] = make([]float32, 16+2*Halo)
		for i := range in[s] {
			in[s][i] = float32(s + i)
		}
	}
	o1, _ := k1.Reference(in)
	o2, _ := k2.Reference(in)
	for i := range o1[3] {
		if o1[3][i] != o2[3][i] {
			t.Fatal("repeats changed a pure store kernel's output")
		}
	}
}

// referenceRepeats is the reference loop Reference replaced: the loop body
// evaluated Repeats times, element by element. TestReferenceOnePass holds
// the one-pass evaluation to its results bit for bit.
func referenceRepeats(k *Kernel, in map[int][]float32) (map[int][]float32, float32) {
	out := make(map[int][]float32)
	for _, os := range k.OutStreams() {
		out[os] = make([]float32, k.Elems)
	}
	slotVals := make([]float32, len(k.Slots))
	var acc float32
	for rep := 0; rep < k.Repeats; rep++ {
		for i := 0; i < k.Elems; i++ {
			for si, slot := range k.Slots {
				slotVals[si] = in[slot.Stream][i+Halo+slot.Offset]
			}
			for _, s := range k.Stmts {
				v := evalExpr(s.E, slotVals)
				if k.Reduction {
					acc += v
				} else {
					out[s.Out][i] = v
				}
			}
		}
	}
	return out, acc
}

// TestReferenceOnePass checks Reference against the Repeats-pass loop on
// every registry kernel at its registered size, and on a reduction whose
// accumulation rounds differently in any other order. Inputs are drawn the
// way the compiler seeds simulated memory.
func TestReferenceOnePass(t *testing.T) {
	r := NewRegistry()
	kernels := []*Kernel{}
	for _, name := range r.KernelNames() {
		kernels = append(kernels, r.Kernel(name))
	}
	// 0.1 is inexact in binary, so the float32 total depends on the
	// summation order: adding each element's value Repeats times in a row,
	// instead of pass by pass, rounds to a different result.
	kernels = append(kernels, &Kernel{
		Name: "sum_tenths", Slots: []LoadSlot{{Stream: 0}},
		Stmts:     []Stmt{{E: Mul(Slot(0), Const(0.1))}},
		Reduction: true, Elems: 1000, Repeats: 7,
	})
	reductions := 0
	for _, k := range kernels {
		if k.Reduction && k.Repeats > 1 {
			reductions++
		}
		rng := rand.New(rand.NewSource(1))
		in := map[int][]float32{}
		for _, s := range k.InStreams() {
			in[s] = make([]float32, k.Elems+2*Halo)
			for i := range in[s] {
				if k.IntData {
					in[s][i] = isa.IntBits(int32(rng.Intn(256)))
				} else {
					in[s][i] = 0.5 + rng.Float32()
				}
			}
		}
		gotOut, gotAcc := k.Reference(in)
		wantOut, wantAcc := referenceRepeats(k, in)
		if math.Float32bits(gotAcc) != math.Float32bits(wantAcc) {
			t.Errorf("%s: reduction %v, the %d-pass loop gives %v", k.Name, gotAcc, k.Repeats, wantAcc)
		}
		if len(gotOut) != len(wantOut) {
			t.Fatalf("%s: %d output streams, want %d", k.Name, len(gotOut), len(wantOut))
		}
		for s, want := range wantOut {
			for i := range want {
				if math.Float32bits(gotOut[s][i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s: stream %d elem %d = %v, the %d-pass loop gives %v",
						k.Name, s, i, gotOut[s][i], k.Repeats, want[i])
				}
			}
		}
	}
	if reductions == 0 {
		t.Fatal("no reduction with Repeats > 1 was checked")
	}
}

func TestSynthComputeBudgetExact(t *testing.T) {
	f := func(r8, s8, c8 uint8) bool {
		reads := int(r8%4) + 1
		stores := int(s8%3) + 1
		computes := int(c8 % 24)
		k := synth(synthSpec{name: "q", reads: reads, stores: stores, computes: computes, elems: 64, repeats: 1})
		return k.NumCompute() == computes && k.NumLoads() == reads && k.NumStores() == stores
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSynthReuseAddsLoadsNotFootprint(t *testing.T) {
	base := synth(synthSpec{name: "a", reads: 3, stores: 1, computes: 4, elems: 64, repeats: 1})
	reuse := synth(synthSpec{name: "b", reads: 3, reuse: 2, stores: 1, computes: 4, elems: 64, repeats: 1})
	if reuse.NumLoads() != base.NumLoads()+2 {
		t.Fatal("reuse loads missing")
	}
	if reuse.UniqueStreams() != base.UniqueStreams() {
		t.Fatal("reuse must not grow the footprint")
	}
	if !(reuse.OI().Issue < reuse.OI().Mem) {
		t.Fatal("reuse must lower oi_issue below oi_mem")
	}
}

func TestRegistryWorkloads(t *testing.T) {
	r := NewRegistry()
	if n := len(r.WorkloadNames()); n != 34 {
		t.Fatalf("registry has %d workloads, want 34 (22 SPEC + 12 OpenCV)", n)
	}
	w := r.Workload("spec/WL8")
	if len(w.Phases) != 2 || w.Phases[0].Name != "rho_eos2" || w.Phases[1].Name != "rho_eos6" {
		t.Fatalf("spec/WL8 phases wrong: %+v", w.Phases)
	}
	if w.Class != MemoryIntensive {
		t.Fatal("spec/WL8 must classify as memory-intensive")
	}
	if r.Workload("spec/WL16").Class != ComputeIntensive {
		t.Fatal("spec/WL16 (wsm51) must classify as compute-intensive")
	}
}

func TestFigure10PairsShape(t *testing.T) {
	r := NewRegistry()
	pairs := Figure10Pairs(r)
	if len(pairs) != 25 {
		t.Fatalf("got %d pairs, want 25", len(pairs))
	}
	for _, p := range pairs {
		if p.Cores() != 2 {
			t.Errorf("%s: %d cores, want 2", p.Name, p.Cores())
		}
	}
	// The paper's categories: 22 <memory, compute>, WL12+WL19 is
	// <memory, memory>, WL9+WL13 and cv WL9+WL4-ish are compute pairs.
	if pairs[15].Name != "spec:WL12+WL19" {
		t.Fatalf("pair 16 = %s, want spec:WL12+WL19", pairs[15].Name)
	}
}

func TestFourCoreGroupsShape(t *testing.T) {
	r := NewRegistry()
	gs := FourCoreGroups(r)
	if len(gs) != 4 {
		t.Fatalf("got %d groups, want 4", len(gs))
	}
	for _, g := range gs {
		if g.Cores() != 4 {
			t.Errorf("%s: %d cores, want 4", g.Name, g.Cores())
		}
	}
}

func TestMotivatingPairShape(t *testing.T) {
	r := NewRegistry()
	p := MotivatingPair(r)
	if p.Cores() != 2 {
		t.Fatal("motivating pair must be two cores")
	}
	if len(p.W[0].Phases) != 2 || len(p.W[1].Phases) != 1 {
		t.Fatal("WL#0 must have two phases, WL#1 one")
	}
	// Phase OIs must be increasing for WL#0 (the §2 narrative).
	if !(p.W[0].Phases[0].OI().Mem < p.W[0].Phases[1].OI().Mem) {
		t.Fatal("WL#0 phase 2 must have higher operational intensity")
	}
}

func TestScaledClampsAndScales(t *testing.T) {
	r := NewRegistry()
	w := r.Workload("spec/WL1")
	s := w.Scaled(0.25)
	for i, k := range s.Phases {
		if k.Elems != w.Phases[i].Elems/4 {
			t.Fatalf("phase %d elems = %d, want %d", i, k.Elems, w.Phases[i].Elems/4)
		}
	}
	tiny := w.Scaled(0.000001)
	for _, k := range tiny.Phases {
		if k.Elems < 64 {
			t.Fatal("Scaled must clamp to 64 elements")
		}
	}
	// Original untouched.
	if w.Phases[0].Elems != memElems {
		t.Fatal("Scaled must not mutate the registry kernel")
	}
}

func TestMaxTempsBoundsRegisterNeeds(t *testing.T) {
	// The compiler reserves a handful of temporary Z registers; every
	// kernel's Ershov number must fit comfortably.
	r := NewRegistry()
	for _, name := range r.KernelNames() {
		if d := r.Kernel(name).MaxTemps(); d > 6 {
			t.Errorf("%s: needs %d temporaries, register allocator budget is 6", name, d)
		}
	}
}

func TestOIPairPositive(t *testing.T) {
	r := NewRegistry()
	for _, name := range r.KernelNames() {
		oi := r.Kernel(name).OI()
		if oi.Issue <= 0 || oi.Mem <= 0 {
			t.Errorf("%s: non-positive OI %+v", name, oi)
		}
		if oi.Issue > oi.Mem {
			t.Errorf("%s: oi_issue %v > oi_mem %v (impossible: reuse only lowers issue)", name, oi.Issue, oi.Mem)
		}
	}
}

func TestOIPackingRoundTripsForAllKernels(t *testing.T) {
	// The <OI> register quantizes to 1/256; every Table 3 value must
	// survive packing well enough for the lane manager.
	r := NewRegistry()
	for _, name := range r.KernelNames() {
		oi := r.Kernel(name).OI()
		rt := isa.UnpackOI(isa.PackOI(oi))
		if math.Abs(rt.Mem-oi.Mem) > 1.0/256 || math.Abs(rt.Issue-oi.Issue) > 1.0/256 {
			t.Errorf("%s: OI pair %+v does not survive register packing (%+v)", name, oi, rt)
		}
	}
}

// copyWith returns a copy of k with the given trip count and repeats, for
// small functional tests.
func (k *Kernel) copyWith(elems, repeats int) *Kernel {
	c := *k
	c.Elems, c.Repeats = elems, repeats
	return &c
}
