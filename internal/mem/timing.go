package mem

import (
	"cmp"
	"fmt"
	"slices"
)

// LineBytes is the cache-line size used throughout Table 4.
const LineBytes = 64

// Port is the timing interface of one level of the hierarchy. Access asks
// for size bytes at addr starting no earlier than cycle now; it returns the
// cycle at which the data is available (loads) or accepted (stores), and
// ok=false if the level cannot accept the request this cycle (all outstanding
// miss slots busy) — the requester must retry on a later cycle.
type Port interface {
	Access(now uint64, addr uint64, size int, write bool) (done uint64, ok bool)
}

// SharedPort is a Port whose MSHR slots are arbitrated per requestor.
type SharedPort interface {
	Port
	// AccessFrom is Access attributed to requestor who (e.g. a core id);
	// pass -1 for unattributed requests.
	AccessFrom(now uint64, addr uint64, size int, write bool, who int) (done uint64, ok bool)
}

// RetryProber is the optional skip-ahead capability of a timing port: it can
// predict, without mutating any state, that an access would be rejected with
// cycle-invariant side effects until some wake cycle (see Cache.ProbeRetry),
// and bulk-replay those side effects for a window of elided retry attempts
// (see Cache.ReplayRetries).
type RetryProber interface {
	ProbeRetry(now uint64, addr uint64, size int, write bool, who int) (wake uint64, elidable bool)
	ReplayRetries(from, n uint64, addr uint64, size int, write bool, who int)
}

// bwMeter serializes bandwidth consumption: a component that can move
// bytesPerCycle bytes each cycle grants a request of b bytes the interval
// [max(now, nextFree), +b/bytesPerCycle). This is what makes two cores
// streaming through the shared L2/DRAM slow each other down, the central
// contention effect in the paper's memory-intensive workloads.
type bwMeter struct {
	bytesPerCycle float64
	nextFree      float64
}

// consume reserves b bytes of bandwidth and returns the cycle at which the
// transfer completes.
func (m *bwMeter) consume(now uint64, b int) uint64 {
	start := float64(now)
	if m.nextFree > start {
		start = m.nextFree
	}
	m.nextFree = start + float64(b)/m.bytesPerCycle
	done := uint64(m.nextFree)
	if float64(done) < m.nextFree {
		done++
	}
	return done
}

// missTracker bounds the number of overlapping outstanding misses (an MSHR
// file). A per-requestor quota prevents one core's stream (and its
// prefetches) from monopolizing a shared cache's fill slots — the fairness
// that keeps co-running memory-bound workloads at parity (§7.4 Case 3).
//
// pending is kept in ascending release order (ties in reservation order),
// so completions retire lazily as a prefix on the next check and the
// earliest release is pending[0]; held counts each requestor's pending
// entries, so the quota check is one compare. The next level's bandwidth
// meter serializes fills, so a new release almost always lands at the tail
// and the ordered insert rarely shifts anything.
//
// Only pending is checkpointed state: the slot counts are configuration,
// buf is scratch and held is derived (recompute re-derives it after a
// restore), so the state codec skips them.
type missTracker struct {
	slots int `digest:"-"`
	quota int `digest:"-"` // max per requestor; 0 = no quota
	// pending is a window of buf: retire advances its start, and reserve
	// moves it back to buf's front once it reaches buf's end. buf holds
	// twice the slots, so that move copies at most slots entries once per
	// slots reservations.
	pending []missEntry
	buf     []missEntry `digest:"-"`
	held    []int       `digest:"-"` // held[who]: pending entries of requestor who >= 0
}

type missEntry struct {
	release uint64
	who     int
}

// retire drops the misses completed by cycle now.
func (t *missTracker) retire(now uint64) {
	n := 0
	for n < len(t.pending) && t.pending[n].release <= now {
		if who := t.pending[n].who; who >= 0 {
			t.held[who]--
		}
		n++
	}
	t.pending = t.pending[n:]
}

// recompute restores release order and the per-requestor counts after
// pending was replaced wholesale (checkpoint restore), so the invariants
// never depend on what a snapshot carried.
func (t *missTracker) recompute() {
	slices.SortStableFunc(t.pending, func(a, b missEntry) int { return cmp.Compare(a.release, b.release) })
	clear(t.held)
	for _, e := range t.pending {
		t.count(e.who)
	}
}

// count adds one pending entry to requestor who's occupancy.
func (t *missTracker) count(who int) {
	if who < 0 {
		return
	}
	for len(t.held) <= who {
		t.held = append(t.held, 0)
	}
	t.held[who]++
}

// hasSlot retires completed misses and reports whether requestor who may
// allocate a slot. It must be checked before consuming any downstream
// bandwidth, or rejected requests would inflate the next level's queue
// occupancy on every retry.
func (t *missTracker) hasSlot(now uint64, who int) bool {
	if len(t.pending) > 0 && t.pending[0].release <= now {
		t.retire(now)
	}
	if len(t.pending) >= t.slots {
		return false
	}
	// who < 0 bypasses the quota; a who past held has no pending miss.
	return t.quota <= 0 || uint(who) >= uint(len(t.held)) || t.held[who] < t.quota
}

// reserve records a miss completing at done; call only after hasSlot.
func (t *missTracker) reserve(done uint64, who int) {
	if len(t.pending) == cap(t.pending) {
		if cap(t.buf) < 2*t.slots {
			t.buf = make([]missEntry, 2*t.slots)
		}
		t.pending = append(t.buf[:0], t.pending...)
	}
	t.pending = append(t.pending, missEntry{})
	i := len(t.pending) - 1
	for ; i > 0 && t.pending[i-1].release > done; i-- {
		t.pending[i] = t.pending[i-1]
	}
	t.pending[i] = missEntry{release: done, who: who}
	t.count(who)
}

// nextRelease returns the earliest pending completion, or ^uint64(0) when no
// miss is outstanding. A full tracker cannot change its hasSlot answer before
// this cycle (reservations only come from accesses, and a rejected requestor
// is by definition not accessing).
func (t *missTracker) nextRelease() uint64 {
	if len(t.pending) == 0 {
		return ^uint64(0)
	}
	return t.pending[0].release
}

// check verifies the tracker's invariants: pending is in release order and
// within the slot count, and every requestor's count equals a recount.
func (t *missTracker) check() error {
	if len(t.pending) > t.slots {
		return fmt.Errorf("%d pending misses exceed %d slots", len(t.pending), t.slots)
	}
	held := make([]int, len(t.held))
	for i, e := range t.pending {
		if i > 0 && e.release < t.pending[i-1].release {
			return fmt.Errorf("pending[%d] releases at %d, before pending[%d] at %d", i, e.release, i-1, t.pending[i-1].release)
		}
		if e.who >= len(held) {
			return fmt.Errorf("requestor %d holds a miss but has no count", e.who)
		}
		if e.who >= 0 {
			held[e.who]++
		}
	}
	for who, n := range held {
		if t.held[who] != n {
			return fmt.Errorf("requestor %d counted %d pending misses, holds %d", who, t.held[who], n)
		}
	}
	return nil
}

// lineSpan returns the first line-aligned address and the number of lines
// touched by [addr, addr+size).
func lineSpan(addr uint64, size int) (first uint64, n int) {
	if size <= 0 {
		size = 1
	}
	first = addr &^ (LineBytes - 1)
	last := (addr + uint64(size) - 1) &^ (LineBytes - 1)
	return first, int((last-first)/LineBytes) + 1
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
