package sim

import "slices"

// timelineBucket is a Timeline's bucket width in cycles: the paper's
// Figure 2 and Figure 14(b) plot "each point represents a set of 1000
// consecutive cycles".
const timelineBucket = 1000

// Timeline accumulates a per-cycle quantity into 1000-cycle buckets and
// reports the bucket averages, the y-axis of Figures 2 and 14(b) (the
// average number of SIMD lanes used per cycle). It keeps only each bucket's
// sum of non-zero samples: a zero adds nothing to a sum, and a bucket's cycle
// count is the clock's, which Points derives. A Timeline is checkpointed
// state held by value in a component's state struct.
type Timeline struct {
	sums []float64
}

// Record adds value v for the given cycle. A zero sample needs no Record.
func (t *Timeline) Record(cycle uint64, v float64) {
	i := int(cycle / timelineBucket)
	if i >= len(t.sums) {
		t.grow(i)
	}
	t.sums[i] += v
}

// grow extends the buckets through index i, to at least 8 at the first
// growth, so a sparse series does not reallocate every few buckets. Buckets
// newly exposed within the capacity are cleared: a restore copies into
// storage that can hold older sums past its length.
func (t *Timeline) grow(i int) {
	n := len(t.sums)
	t.sums = slices.Grow(t.sums, max(i+1, 8)-n)[:i+1]
	clear(t.sums[n:])
}

// Points returns the average value of each bucket of the cycles [0, upTo) in
// time order; the last bucket may be partial.
func (t *Timeline) Points(upTo uint64) []float64 {
	out := make([]float64, (upTo+timelineBucket-1)/timelineBucket)
	for i := range min(len(out), len(t.sums)) {
		lo := uint64(i) * timelineBucket
		out[i] = t.sums[i] / float64(min(upTo-lo, timelineBucket))
	}
	return out
}
