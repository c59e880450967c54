// Package obs is the simulator's cycle-attribution observability layer: a
// gem5-style top-down accounting of where every cycle of every core went,
// plus named latency histograms and a streaming Chrome/Perfetto trace-event
// sink (see perfetto.go).
//
// The design goal is zero cost when disabled: every hardware model holds a
// *Probe that is nil unless the run asked for observability, and every probe
// method is nil-receiver-safe, so instrumentation sites are a single inlined
// nil check on the hot path (guarded by BenchmarkObsOverhead at the repo
// root).
//
// # Cycle attribution
//
// During each cycle the instrumented components raise signals describing
// what they did (or what blocked them) for each core; the probe is
// registered as the last sim.Component, so at the end of the cycle it
// resolves the signal set into exactly one Bucket per core via a fixed
// priority order (the most SIMD-relevant explanation wins) and charges the
// cycle to it. By construction every charged cycle lands in exactly one
// bucket, which yields the conservation invariant the tests assert:
//
//	sum over buckets of core c == Result.Cores[c].Cycles
//
// Cycle indexing: Result reports a core's Cycles as the timestamp of its
// last active cycle, i.e. the number of cycles elapsed since reset. The
// probe therefore charges elapsed cycles 1..N (tick 0 is the reset cycle)
// and the trailing all-idle tail after a core completes is trimmed at
// collection (TrimTrailingIdle), making the invariant exact.
package obs

import (
	"fmt"

	"occamy/internal/digest"
)

// Sig is a set of per-cycle observation signals raised by the hardware
// models. Multiple signals may be raised for a core in one cycle; the
// classifier picks one bucket by priority.
type Sig uint16

// Signals, one bit each. See the Bucket they map to for semantics.
const (
	// SigScalar: the scalar core ticked while live (issued scalar work or
	// stalled on a scalar operand). The lowest-priority non-idle signal.
	SigScalar Sig = 1 << iota
	// SigVecIssue: the co-processor issued at least one SIMD compute or
	// memory micro-op for this core.
	SigVecIssue
	// SigRenameStall: the co-processor's renamer was blocked waiting for
	// free physical vector registers (the Figure 13 effect).
	SigRenameStall
	// SigDispatchFull: the scalar core could not transmit because the
	// co-processor instruction pool was full.
	SigDispatchFull
	// SigExeBUWait: a renamed SIMD compute instruction was waiting for
	// in-flight ExeBU results (data dependencies).
	SigExeBUWait
	// SigLSUWait: vector memory issue blocked on LHQ/STQ capacity or store
	// data, or scalar memory waited on vector-memory quiescence (MOB).
	SigLSUWait
	// SigMemBW: a vector memory access was rejected by the vector cache's
	// MSHRs — the memory system is bandwidth/fill-slot saturated.
	SigMemBW
	// SigDrain: an MSR <VL> sat at the pool head waiting for the pipeline
	// to drain, or other reconfiguration-protocol work was in progress.
	SigDrain
	// SigMonitor: partition-monitor work (MRS <decision>, MSR <OI>, or the
	// lane manager busy computing a plan) displaced other progress.
	SigMonitor
)

// Bucket is one slot of the top-down cycle taxonomy.
type Bucket uint8

// The taxonomy. Every charged cycle of every core lands in exactly one.
const (
	// BucketScalarIssue: the core was executing (or stalled inside) scalar
	// work with no SIMD activity or blockage to explain the cycle.
	BucketScalarIssue Bucket = iota
	// BucketVecIssue: SIMD work issued — the "useful" vector cycles.
	BucketVecIssue
	// BucketRenameStall: blocked renaming, waiting on physical registers.
	BucketRenameStall
	// BucketDispatchFull: transmit refused, co-processor pool full.
	BucketDispatchFull
	// BucketExeBUWait: waiting on in-flight execution-unit results.
	BucketExeBUWait
	// BucketLSUWait: waiting on load/store queue capacity or ordering.
	BucketLSUWait
	// BucketMemBW: waiting on memory bandwidth / fill slots.
	BucketMemBW
	// BucketDrainReconfig: the §4.2.2 reconfiguration drain.
	BucketDrainReconfig
	// BucketMonitor: §5 partition-monitor overhead.
	BucketMonitor
	// BucketIdle: nothing happened for this core (done, parked, or truly
	// idle).
	BucketIdle

	// NumBuckets is the taxonomy size.
	NumBuckets = int(BucketIdle) + 1
)

// bucketNames indexes Bucket; these are the stable report keys.
var bucketNames = [NumBuckets]string{
	"scalar-issue",
	"vec-issue",
	"rename-stall",
	"dispatch-full",
	"exebu-busy-wait",
	"lsu-wait",
	"mem-bandwidth",
	"drain-reconfig",
	"lane-monitor-overhead",
	"idle",
}

// String returns the bucket's stable report key.
func (b Bucket) String() string {
	if int(b) < NumBuckets {
		return bucketNames[b]
	}
	return "bucket?"
}

// BucketNames returns the taxonomy keys in Bucket order.
func BucketNames() []string {
	out := make([]string, NumBuckets)
	copy(out, bucketNames[:])
	return out
}

// priority resolves a signal set to one bucket: the first matching entry
// wins. The order encodes the top-down philosophy: reconfiguration drains
// and issued vector work explain a cycle before the various waits, and
// scalar progress is the fallback explanation for a live core.
var priority = []struct {
	sig Sig
	b   Bucket
}{
	{SigDrain, BucketDrainReconfig},
	{SigVecIssue, BucketVecIssue},
	{SigRenameStall, BucketRenameStall},
	{SigMemBW, BucketMemBW},
	{SigLSUWait, BucketLSUWait},
	{SigExeBUWait, BucketExeBUWait},
	{SigDispatchFull, BucketDispatchFull},
	{SigMonitor, BucketMonitor},
	{SigScalar, BucketScalarIssue},
}

// Classify maps one cycle's signal set to its bucket.
func Classify(m Sig) Bucket {
	for _, p := range priority {
		if m&p.sig != 0 {
			return p.b
		}
	}
	return BucketIdle
}

// Options selects what a run observes. The zero value disables everything.
type Options struct {
	// Attribution enables the per-cycle bucket accounting.
	Attribution bool
	// Sink, when non-nil, receives Chrome/Perfetto trace events.
	Sink *Perfetto
}

// Enabled reports whether a probe should be built at all.
func (o Options) Enabled() bool { return o.Attribution || o.Sink != nil }

// Probe is the per-system observability hub. A nil *Probe is the disabled
// state: every method is safe (and cheap) to call on it.
//
// The probe implements sim.Component and must be registered last, so its
// Tick sees the signals of the whole cycle.
type Probe struct {
	Accounts
	sink  *Perfetto
	hists map[string]*Histogram
	// histNames preserves creation order for deterministic reports.
	histNames []string
}

// Accounts is the probe's checkpointed attribution state: the in-cycle
// signal masks and the per-core bucket charges.
type Accounts struct {
	mask    []Sig
	buckets [][NumBuckets]uint64
	total   []uint64
}

// NewProbe returns an enabled probe for the given core count. sink may be
// nil (attribution only).
func NewProbe(cores int, sink *Perfetto) *Probe {
	if cores <= 0 {
		panic(fmt.Sprintf("obs: bad core count %d", cores))
	}
	return &Probe{
		Accounts: Accounts{
			mask:    make([]Sig, cores),
			buckets: make([][NumBuckets]uint64, cores),
			total:   make([]uint64, cores),
		},
		sink:  sink,
		hists: make(map[string]*Histogram),
	}
}

// Sink returns the probe's Perfetto sink (nil when disabled or absent).
func (p *Probe) Sink() *Perfetto {
	if p == nil {
		return nil
	}
	return p.sink
}

// Signal raises sig for core this cycle. Safe on a nil probe.
func (p *Probe) Signal(core int, sig Sig) {
	if p == nil {
		return
	}
	p.mask[core] |= sig
}

// Hist returns the named latency histogram, creating it on first use.
// Returns nil on a nil probe; a nil *Histogram ignores Observe, so
// components may cache the result unconditionally.
func (p *Probe) Hist(name string) *Histogram {
	if p == nil {
		return nil
	}
	h, ok := p.hists[name]
	if !ok {
		h = &Histogram{name: name}
		p.hists[name] = h
		p.histNames = append(p.histNames, name)
	}
	return h
}

// Histograms returns the registered histograms in creation order.
func (p *Probe) Histograms() []*Histogram {
	if p == nil {
		return nil
	}
	out := make([]*Histogram, 0, len(p.histNames))
	for _, n := range p.histNames {
		out = append(out, p.hists[n])
	}
	return out
}

// Name implements sim.Component.
func (p *Probe) Name() string { return "obs" }

// Tick implements sim.Component: resolve this cycle's signals into one
// bucket per core. Cycle 0 is the reset cycle and is not charged (see the
// package comment on cycle indexing).
func (p *Probe) Tick(now uint64) {
	if p == nil {
		return
	}
	if now == 0 {
		for c := range p.mask {
			p.mask[c] = 0
		}
		return
	}
	for c := range p.mask {
		p.buckets[c][Classify(p.mask[c])]++
		p.total[c]++
		p.mask[c] = 0
	}
}

// NextWake implements the sim engine's Sleeper capability (structurally —
// obs does not import sim): the probe never schedules work of its own, and
// charging a cycle whose signal mask is already settled is a pure accounting
// effect, so the probe is always quiescent.
func (p *Probe) NextWake(now uint64) (uint64, bool) {
	_ = now
	return neverWake, true
}

// neverWake mirrors sim.NeverWake without importing sim.
const neverWake = ^uint64(0)

// SkipTicks bulk-charges the n elided cycles starting at from: in a
// quiescent window every component re-raises the same signal set each cycle,
// so the mask accumulated since the last charge classifies every skipped
// cycle. Cycle 0 is the reset cycle and is never charged, mirroring Tick.
func (p *Probe) SkipTicks(from, n uint64) {
	if p == nil {
		return
	}
	if from == 0 && n > 0 {
		n--
	}
	for c := range p.mask {
		if n > 0 {
			p.buckets[c][Classify(p.mask[c])] += n
			p.total[c] += n
		}
		p.mask[c] = 0
	}
}

// ProbeState is the probe's checkpoint: its Accounts and every histogram's
// values. The Perfetto sink is NOT captured — trace emission is streaming
// I/O.
type ProbeState struct {
	Accounts
	hists map[string]Histogram
}

// Snapshot captures the probe's accounting (the zero state on a nil probe).
func (p *Probe) Snapshot() ProbeState {
	if p == nil {
		return ProbeState{}
	}
	st := ProbeState{Accounts: digest.Clone(&p.Accounts), hists: make(map[string]Histogram, len(p.hists))}
	for n, h := range p.hists {
		st.hists[n] = *h
	}
	return st
}

// Restore rewinds the probe to a Snapshot. The histograms are restored by
// hand, not copied: components cache their *Histogram pointers, so every
// histogram is written in place — one created since the snapshot is reset
// to empty, one named only in the snapshot is re-created.
func (p *Probe) Restore(st ProbeState) {
	if p == nil {
		return
	}
	digest.Copy(&p.Accounts, &st.Accounts)
	for n, h := range p.hists {
		if saved, ok := st.hists[n]; ok {
			name := h.name
			*h = saved
			h.name = name
		} else {
			*h = Histogram{name: h.name}
		}
	}
	for n, saved := range st.hists {
		if _, ok := p.hists[n]; !ok {
			h := p.Hist(n)
			name := h.name
			*h = saved
			h.name = name
		}
	}
}

// CoreAttribution is one core's final cycle accounting.
type CoreAttribution struct {
	// Buckets holds charged cycles, indexed by Bucket.
	Buckets [NumBuckets]uint64
	// Total is the number of charged cycles (== Sum() at all times — kept
	// separately so the conservation invariant is a real cross-check, not
	// a tautology).
	Total uint64
}

// CoreAttribution returns a copy of core c's accounting so far.
func (p *Probe) CoreAttribution(c int) CoreAttribution {
	if p == nil {
		return CoreAttribution{}
	}
	return CoreAttribution{Buckets: p.buckets[c], Total: p.total[c]}
}

// Cores returns the number of cores the probe observes (0 when disabled).
func (p *Probe) Cores() int {
	if p == nil {
		return 0
	}
	return len(p.mask)
}

// Sum adds up the buckets.
func (a CoreAttribution) Sum() uint64 {
	var s uint64
	for _, v := range a.Buckets {
		s += v
	}
	return s
}

// Get returns one bucket's count.
func (a CoreAttribution) Get(b Bucket) uint64 { return a.Buckets[b] }

// Frac returns one bucket's share of the total (0 when empty).
func (a CoreAttribution) Frac(b Bucket) float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Buckets[b]) / float64(a.Total)
}

// TrimTrailingIdle discards the idle tail charged after the core finished,
// shrinking the attribution window to exactly target cycles. The engine runs
// until every core (and the co-processor backlog) completes, so non-critical
// cores accumulate guaranteed-idle cycles at the end; those belong to the
// makespan, not to the core's own execution-time accounting.
//
// It returns an error — leaving the attribution untouched — if the tail is
// not actually idle, which would indicate a signal-accounting bug in a
// hardware model.
func (a *CoreAttribution) TrimTrailingIdle(target uint64) error {
	if target > a.Total {
		return fmt.Errorf("obs: trim target %d exceeds charged cycles %d", target, a.Total)
	}
	trim := a.Total - target
	if trim > a.Buckets[BucketIdle] {
		return fmt.Errorf("obs: trailing %d cycles not idle (idle bucket holds %d)",
			trim, a.Buckets[BucketIdle])
	}
	a.Buckets[BucketIdle] -= trim
	a.Total = target
	return nil
}

// CheckConservation verifies the invariant that every charged cycle landed
// in exactly one bucket. It doubles as a correctness check on the hardware
// models' signal wiring.
func (a CoreAttribution) CheckConservation() error {
	if s := a.Sum(); s != a.Total {
		return fmt.Errorf("obs: buckets sum to %d, charged %d cycles", s, a.Total)
	}
	return nil
}
