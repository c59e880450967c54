package sim

// Timeline accumulates a per-cycle quantity into fixed-width buckets and
// reports the bucket averages. The paper's Figure 2 and Figure 14(b) plot
// exactly this: "each point represents a set of 1000 consecutive cycles" with
// the y-axis being the average number of SIMD lanes used per cycle.
//
// A Timeline is checkpointed state (its buckets and current index) held by
// value in a component's state struct; the bucket width is configuration
// and the cursor is derived, so both are skipped by the state codec and
// RestoreCursor re-derives the cursor after a restore.
type Timeline struct {
	bucket  uint64 `digest:"-"` // bucket width in cycles
	sums    []float64
	counts  []uint64
	current uint64 // index of the bucket being filled
	// Current-bucket cursor: curLo is the first cycle of the bucket being
	// filled and curSum/curCnt point at its cells, so the per-core-per-cycle
	// Record fast path is one compare and two pointer bumps — no divide, no
	// bounds checks. curLo holds invalidWindow whenever the cursor does not
	// point into the live slices (fresh timeline, pre-restore).
	curLo  uint64   `digest:"-"`
	curSum *float64 `digest:"-"`
	curCnt *uint64  `digest:"-"`
}

// invalidWindow is a curLo sentinel no reachable cycle can fall inside:
// cycle-invalidWindow wraps to at least 2^62 for any cycle below 2^63, far
// beyond any bucket width.
const invalidWindow = uint64(1) << 63

// NewTimeline returns a timeline with the given bucket width in cycles.
// A width of zero defaults to 1000, the paper's plotting granularity.
func NewTimeline(bucketCycles uint64) *Timeline {
	if bucketCycles == 0 {
		bucketCycles = 1000
	}
	return &Timeline{bucket: bucketCycles, curLo: invalidWindow}
}

// setCurrent moves the current-bucket cursor; idx must index the live
// slices. Growth and restore re-call it because append may move the backing
// arrays out from under the cached cell pointers.
func (t *Timeline) setCurrent(idx uint64) {
	t.current = idx
	t.curLo = idx * t.bucket
	t.curSum = &t.sums[idx]
	t.curCnt = &t.counts[idx]
}

// Record adds value v for the given cycle. The body is split so the
// common case — another sample into the bucket being filled — inlines into
// the per-core-per-cycle call sites as a compare and two adds; cycle-t.curLo
// wraps past bucket for cycles before the window, so one compare covers both
// bounds.
func (t *Timeline) Record(cycle uint64, v float64) {
	if cycle-t.curLo < t.bucket {
		*t.curSum += v
		*t.curCnt++
		return
	}
	t.recordSlow(cycle, v)
}

// recordSlow opens (growing if needed) the bucket for cycle and records v.
// Kept out of line so Record's fast path fits the inlining budget.
//
//go:noinline
func (t *Timeline) recordSlow(cycle uint64, v float64) {
	idx := cycle / t.bucket
	for uint64(len(t.sums)) <= idx {
		t.sums = append(t.sums, 0)
		t.counts = append(t.counts, 0)
	}
	t.sums[idx] += v
	t.counts[idx]++
	t.setCurrent(idx)
}

// RecordRun adds value v for each of the n consecutive cycles starting at
// from — equivalent to n Record calls, split across bucket boundaries. The
// per-bucket sum gains v*span rather than span separate additions, so the
// result is bit-identical to individual Record calls only when that product
// is exact; the skip-ahead engine only elides cycles whose sample is 0.0,
// for which both forms are exact no-ops on the sum.
func (t *Timeline) RecordRun(from, n uint64, v float64) {
	for n > 0 {
		idx := from / t.bucket
		for uint64(len(t.sums)) <= idx {
			t.sums = append(t.sums, 0)
			t.counts = append(t.counts, 0)
		}
		span := (idx+1)*t.bucket - from
		if span > n {
			span = n
		}
		t.sums[idx] += v * float64(span)
		t.counts[idx] += span
		t.setCurrent(idx)
		from += span
		n -= span
	}
}

// BucketCycles returns the bucket width.
func (t *Timeline) BucketCycles() uint64 { return t.bucket }

// Points returns the average value of each bucket in time order. Buckets that
// received no samples report zero.
func (t *Timeline) Points() []float64 {
	out := make([]float64, len(t.sums))
	for i := range t.sums {
		if t.counts[i] > 0 {
			out[i] = t.sums[i] / float64(t.counts[i])
		}
	}
	return out
}

// Len returns the number of buckets with at least one sample slot allocated.
func (t *Timeline) Len() int { return len(t.sums) }

// RestoreCursor re-derives the current-bucket cursor after the buckets were
// copied in from a checkpoint (the bucket width is unchanged).
func (t *Timeline) RestoreCursor() {
	if t.current < uint64(len(t.sums)) {
		t.setCurrent(t.current)
	} else {
		t.curLo, t.curSum, t.curCnt = invalidWindow, nil, nil
	}
}
