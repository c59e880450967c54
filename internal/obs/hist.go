package obs

import (
	"fmt"
	"math/bits"
	"strings"
)

// Histogram is a power-of-two-bucketed latency histogram (values are cycle
// counts). A nil *Histogram ignores Observe, so instrumentation sites can
// cache Probe.Hist results unconditionally. Its name and listing rule are
// configuration: a checkpoint carries the values alone.
type Histogram struct {
	name    string `digest:"-"`
	quiet   bool   `digest:"-"`
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [65]uint64 // buckets[i] counts values with bit-length i (0 = value 0)
}

// NumBins is the number of power-of-two bins: one per bit-length 0..64
// (bin 0 holds the value 0).
const NumBins = 65

// Name returns the histogram's registry name (e.g. "dram.latency").
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// RetireHistName is the registry name of core c's issue→retire latency
// histogram. It lives here because both the co-processor (the writer) and
// the telemetry sampler (the windowed reader) resolve the same histogram
// by name at setup time.
func RetireHistName(c int) string {
	return fmt.Sprintf("coproc.c%d.retire.latency", c)
}

// Observe records one value. Safe on a nil histogram.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() uint64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observed value.
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// CopyBins copies the power-of-two bin counts into dst without allocating —
// the telemetry sampler diffs consecutive copies into windowed views. A nil
// histogram zeroes dst.
func (h *Histogram) CopyBins(dst *[NumBins]uint64) {
	if h == nil {
		*dst = [NumBins]uint64{}
		return
	}
	*dst = h.buckets
}

// Quantile returns the q-quantile (q in [0, 1], clamped) of the observed
// values, estimated from the power-of-two bins and clamped to the observed
// [min, max]. The edge cases are defined, not garbage: an empty histogram
// reports 0, a single-observation histogram reports that observation
// exactly, and q <= 0 / q >= 1 report min / max exactly.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if h.count == 1 {
		return float64(h.min) // min == max == the sample
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	v := QuantileBins(&h.buckets, q)
	if v < float64(h.min) {
		v = float64(h.min)
	}
	if v > float64(h.max) {
		v = float64(h.max)
	}
	return v
}

// QuantileBins estimates the q-quantile from raw power-of-two bin counts —
// the allocation-free primitive behind Histogram.Quantile, also used on
// windowed bin deltas where no min/max is tracked. Empty bins report 0. The
// estimate interpolates linearly inside the bin holding rank q*(n-1), so a
// single observation lands on its bin's lower bound.
func QuantileBins(bins *[NumBins]uint64, q float64) float64 {
	var n uint64
	for _, c := range bins {
		n += c
	}
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n-1)
	cum := 0.0
	for i, c := range bins {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if rank < cum+fc {
			lo, hi := binBounds(i)
			frac := (rank - cum) / fc
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += fc
	}
	// Floating-point fallthrough: report the top occupied bin's upper bound.
	for i := NumBins - 1; i >= 0; i-- {
		if bins[i] > 0 {
			_, hi := binBounds(i)
			return float64(hi)
		}
	}
	return 0
}

// String renders the histogram as one compact report line plus a row per
// occupied power-of-two bin.
func (h *Histogram) String() string {
	if h == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d mean=%.1f min=%d max=%d\n", h.name, h.count, h.Mean(), h.min, h.max)
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		lo, hi := binBounds(i)
		fmt.Fprintf(&b, "  [%6d, %6d]  %d\n", lo, hi, n)
	}
	return b.String()
}

// binBounds returns the inclusive value range of bin i.
func binBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	return 1 << (i - 1), 1<<i - 1
}
