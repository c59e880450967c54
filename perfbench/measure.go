package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples a reported percentile may have above it;
// a tail percentile resting on fewer moves with every run. minPerKind is the
// fewest jobs of a kind a phase collects, so p90 has minBeyond beyond it.
const (
	minBeyond  = 10
	minPerKind = 100
)

// percentile returns the nearest-rank q-quantile of xs (the sample at rank
// ceil(q*n), the rule traffic.Report uses), or an error when fewer than
// minBeyond samples lie beyond that rank. A failed or refused job enters xs
// as +Inf, so it counts as beyond every percentile.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", 100*q, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// phase accumulates one timed phase: what was attempted, what failed, the
// simulated cycles the jobs' results report, and the per-layer counts the
// traced run prints.
type phase struct {
	tr      *tracer // nil when the phase is untraced
	outs    *outcomes
	jobs    int
	failed  int
	errs    []string
	cycles  uint64 // every run's simulated cycles, repeats included
	elapsed time.Duration
	// jobCycles and jobSecs hold each job's simulated cycles and the raw
	// host seconds of each of its runs, jobF each run's contention
	// correction, for mcyclesPerSec.
	jobCycles map[int]uint64
	jobSecs   map[int][]float64
	jobF      map[int][]float64
	// last is the job done recorded since the last correct, or -1.
	last int
	// lat holds submit→result latencies in ms per job kind; kinds are kept
	// apart because their costs differ several-fold.
	lat map[string][]float64
	c   counts
}

// counts are exact per-layer counts taken from what the calls return.
type counts struct {
	migrations, refusals          uint64
	repartitions, reconfigures    uint64
	skipped                       uint64 // skip-elided cycles (sim.skipped_frac numerator)
	runCycles                     uint64 // cycles simulated inside spanned Run calls
	arrivals, completed, canceled uint64
	campaigns, warmRepeats        int
	rejected, servFailed          int
	gcCycles, allocBytes          uint64
}

func newPhase(tr *tracer, outs *outcomes) *phase {
	return &phase{tr: tr, outs: outs, lat: map[string][]float64{},
		jobCycles: map[int]uint64{}, jobSecs: map[int][]float64{}, jobF: map[int][]float64{}, last: -1}
}

// fail records one failed operation; a few messages are kept for stderr.
func (ph *phase) fail(job string, err error) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, fmt.Sprintf("%s: %v", job, err))
	}
}

// enough reports whether every job kind has minPerKind latency samples.
func (ph *phase) enough() bool {
	for _, xs := range ph.lat {
		if len(xs) < minPerKind {
			return false
		}
	}
	return true
}

// done records one successful run of job id: its simulated cycles and its
// raw host seconds, which correct then gives its contention correction.
func (ph *phase) done(id int, cycles uint64, secs float64) {
	ph.cycles += cycles
	ph.jobCycles[id] = cycles
	ph.jobSecs[id] = append(ph.jobSecs[id], secs)
	ph.jobF[id] = append(ph.jobF[id], 1)
	ph.last = id
}

// correct sets the contention correction of the host time done last
// recorded; it does nothing after a failed job.
func (ph *phase) correct(f float64) {
	if ph.last < 0 {
		return
	}
	fs := ph.jobF[ph.last]
	fs[len(fs)-1] = f
	ph.last = -1
}

// mcyclesPerSec is the phase's simulation rate: the job list's simulated
// cycles over the corrected host time one pass takes when every job takes
// its median time across the phase's passes. A job's repeats lie a pass
// apart, so the median also keeps a phase of the host that the probe missed
// and that hit one repeat out of the rate. rawMcyclesPerSec is the same
// without the correction.
func (ph *phase) mcyclesPerSec() float64 { return ph.rate(true) }

func (ph *phase) rawMcyclesPerSec() float64 { return ph.rate(false) }

func (ph *phase) rate(corrected bool) float64 {
	var cycles uint64
	var secs float64
	for id, xs := range ph.jobSecs {
		cycles += ph.jobCycles[id]
		ts := append([]float64(nil), xs...)
		if corrected {
			for k, f := range ph.jobF[id] {
				ts[k] *= f
			}
		}
		secs += median(ts)
	}
	if secs == 0 {
		return 0
	}
	return float64(cycles) / secs / 1e6
}

// outcomes is the outcome gate: the first run of each job records its
// outcome word, every later run must reproduce it, and digest folds the
// words in job-id order into the per-workload digest.
type outcomes struct {
	got  []uint64
	seen []bool
}

func newOutcomes(n int) *outcomes {
	return &outcomes{got: make([]uint64, n), seen: make([]bool, n)}
}

// check records job id's outcome, or reports an error when it differs from
// the outcome an earlier run of the same job produced.
func (o *outcomes) check(id int, v uint64) error {
	if !o.seen[id] {
		o.got[id], o.seen[id] = v, true
		return nil
	}
	if o.got[id] != v {
		return fmt.Errorf("outcome %016x differs from an earlier run's %016x", v, o.got[id])
	}
	return nil
}

// digest folds every job's outcome in id order; complete is false when some
// job never finished.
func (o *outcomes) digest() (d uint64, complete bool) {
	for _, s := range o.seen {
		if !s {
			return 0, false
		}
	}
	return fold(o.got...), true
}

// fold is FNV-64a over little-endian words: the digest of one outcome.
func fold(words ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return h.Sum64()
}

// tail is one job kind's latency summary: the median and p90 under the
// ten-beyond rule, or the rule's error when the kind has too few samples.
type tail struct {
	n        int
	p50, p90 float64
	err      error
}

// kindTails summarizes each kind's latencies on its own: kinds are never
// pooled, since a percentile over a mix of kinds whose costs differ
// several-fold jumps between the two modes as the mix shifts.
func kindTails(lat map[string][]float64) map[string]tail {
	out := map[string]tail{}
	for kind, xs := range lat {
		t := tail{n: len(xs)}
		if t.p50, t.err = percentile(xs, 0.5); t.err == nil {
			t.p90, t.err = percentile(xs, 0.9)
		}
		out[kind] = t
	}
	return out
}
