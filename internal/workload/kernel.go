package workload

import (
	"fmt"

	"occamy/internal/isa"
)

// ElemBytes is the element size of every kernel (32-bit floats, matching the
// paper's "each lane processing 32-bit floating-point data").
const ElemBytes = 4

// Halo is the number of extra elements allocated before and after each
// stream so stencil offsets never read out of bounds.
const Halo = 4

// LoadSlot is one vector load instruction in the kernel body. Several slots
// may name the same stream (with the same or different element offsets):
// that is the *data reuse* of Eq. 5 — the loads move more bytes than the
// per-iteration footprint, making oi_issue < oi_mem.
type LoadSlot struct {
	Stream int // input stream index
	Offset int // element offset (stencil); 0 for plain a[i]
}

// Stmt is one statement of the loop body: a store of E to output stream Out,
// or (when the kernel is a reduction) an accumulation of E into the running
// scalar.
type Stmt struct {
	Out int // output stream index; ignored for reductions
	E   *Expr
}

// Kernel is one loop phase: the unit the Occamy compiler identifies as a
// phase (§6.3, "a loop typically being regarded as a phase").
type Kernel struct {
	Name string
	// Slots are the load instructions of one iteration.
	Slots []LoadSlot
	// Stmts are the computations; each non-reduction statement stores to
	// its output stream.
	Stmts []Stmt
	// Reduction marks a loop that accumulates a scalar (dot product,
	// norms). Reduction kernels have exactly one statement and no stores.
	Reduction bool
	// FuseMAC lets the reduction accumulate fuse a top-level multiply
	// into a single VFMLA (affects the instruction count of Eq. 5).
	FuseMAC bool
	// Elems is the trip count of one pass over the streams.
	Elems int
	// Repeats is the number of passes over the same streams; >1 models a
	// hot loop with a cache-resident working set (the compute-intensive
	// kernels), 1 models a single cold streaming pass (memory-intensive).
	Repeats int
	// PublishedOI is the oi_mem value from Table 3 of the paper, kept for
	// validation; zero when the kernel is not from Table 3.
	PublishedOI float64
	// IntData marks an integer kernel: input streams are initialized with
	// small int32 lane values and results are compared bit-exactly. The
	// statement expressions should use the integer operations.
	IntData bool
}

// Validate checks structural invariants; the registry test runs it on every
// kernel.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("workload: kernel without a name")
	}
	if k.Elems <= 0 || k.Repeats <= 0 {
		return fmt.Errorf("workload: %s: non-positive elems/repeats", k.Name)
	}
	if len(k.Stmts) == 0 {
		return fmt.Errorf("workload: %s: no statements", k.Name)
	}
	if k.Reduction && len(k.Stmts) != 1 {
		return fmt.Errorf("workload: %s: reductions need exactly one statement", k.Name)
	}
	if k.Reduction && k.IntData {
		return fmt.Errorf("workload: %s: reductions accumulate with FP adds; integer reductions are unsupported", k.Name)
	}
	for _, s := range k.Stmts {
		if m := maxSlot(s.E); m >= len(k.Slots) {
			return fmt.Errorf("workload: %s: expr references slot %d of %d", k.Name, m, len(k.Slots))
		}
		if !k.Reduction && s.Out < 0 {
			return fmt.Errorf("workload: %s: store statement without output stream", k.Name)
		}
	}
	return nil
}

// NumLoads returns the vector load instructions per iteration.
func (k *Kernel) NumLoads() int { return len(k.Slots) }

// NumStores returns the vector store instructions per iteration.
func (k *Kernel) NumStores() int {
	if k.Reduction {
		return 0
	}
	return len(k.Stmts)
}

// NumCompute returns the SIMD compute instructions per iteration: the binary
// nodes of every statement plus the reduction accumulate (which fuses into
// the top-level multiply when FuseMAC is set).
func (k *Kernel) NumCompute() int {
	n := 0
	for _, s := range k.Stmts {
		n += countBin(s.E)
	}
	if k.Reduction {
		if k.FuseMAC && len(k.Stmts) == 1 && k.Stmts[0].E.Kind == KindBin && k.Stmts[0].E.Op == isa.OpVFMul {
			// acc += a*b fuses to one VFMLA: the multiply node is
			// absorbed, the accumulate adds nothing extra.
		} else {
			n++ // separate accumulate VFADD
		}
	}
	return n
}

// InStreams returns the distinct input stream indices, in first-use order.
func (k *Kernel) InStreams() []int {
	seen := make(map[int]bool)
	var out []int
	for _, s := range k.Slots {
		if !seen[s.Stream] {
			seen[s.Stream] = true
			out = append(out, s.Stream)
		}
	}
	return out
}

// OutStreams returns the distinct output stream indices, in order.
func (k *Kernel) OutStreams() []int {
	if k.Reduction {
		return nil
	}
	seen := make(map[int]bool)
	var out []int
	for _, s := range k.Stmts {
		if !seen[s.Out] {
			seen[s.Out] = true
			out = append(out, s.Out)
		}
	}
	return out
}

// UniqueStreams returns the per-iteration footprint streams: distinct input
// streams plus distinct output streams (Eq. 5's fp term counts each stream's
// new bytes once, regardless of how many instructions touch it).
func (k *Kernel) UniqueStreams() int {
	return len(k.InStreams()) + len(k.OutStreams())
}

// OI computes the operational-intensity pair of Eq. 5:
//
//	oi_issue = comp / sum of bytes moved by memory instructions
//	oi_mem   = comp / per-iteration memory footprint (reuse considered)
//
// both per element (the trip count cancels).
func (k *Kernel) OI() isa.OIPair {
	comp := float64(k.NumCompute())
	issueBytes := float64(ElemBytes * (k.NumLoads() + k.NumStores()))
	memBytes := float64(ElemBytes * k.UniqueStreams())
	return isa.OIPair{Issue: comp / issueBytes, Mem: comp / memBytes}
}

// MaxTemps returns the largest Ershov number among the statement
// expressions: the temporary vector registers the compiler needs.
func (k *Kernel) MaxTemps() int {
	d := 0
	for _, s := range k.Stmts {
		if sd := ershov(s.E); sd > d {
			d = sd
		}
	}
	return d
}

// Reference computes the expected result arrays and reduction value on the
// host, for validating the simulator's functional execution. in holds one
// slice per input stream of length Elems+2*Halo (the halo mirrors the
// simulated layout); outputs are indexed by output stream.
//
// The loop body reads only in and writes only out, so each of the Repeats
// passes computes the same element values: one pass yields the outputs. A
// reduction keeps its per-element values and accumulates them Repeats times
// in the simulated (pass, element) order, which rounds exactly like
// re-evaluating every pass.
func (k *Kernel) Reference(in map[int][]float32) (out map[int][]float32, reduction float32) {
	out = make(map[int][]float32)
	for _, os := range k.OutStreams() {
		out[os] = make([]float32, k.Elems)
	}
	// slotIn[si][i] is slot si's value at element i; dst[j] receives
	// statement j's value per element.
	slotIn := make([][]float32, len(k.Slots))
	for si, slot := range k.Slots {
		slotIn[si] = in[slot.Stream][Halo+slot.Offset:]
	}
	dst := make([][]float32, len(k.Stmts))
	for j, s := range k.Stmts {
		if k.Reduction {
			dst[j] = make([]float32, k.Elems)
		} else {
			dst[j] = out[s.Out]
		}
	}
	slotVals := make([]float32, len(k.Slots))
	for i := 0; i < k.Elems; i++ {
		for si, vals := range slotIn {
			slotVals[si] = vals[i]
		}
		for j, s := range k.Stmts {
			dst[j][i] = evalExpr(s.E, slotVals)
		}
	}
	var acc float32
	if k.Reduction {
		for rep := 0; rep < k.Repeats; rep++ {
			for _, v := range dst[0] {
				acc += v
			}
		}
	}
	return out, acc
}
