package coproc

import (
	"math/rand"
	"testing"
)

// TestHoldTrackerWakeAnswers drives hold trackers through random Add, Count
// and restore sequences at non-decreasing cycles, and holds the two
// scan-free answers the sleep path relies on to their scanning forms:
// next(now) is the earliest release after now, and maxRel > now exactly
// when the latest tracked release is after now (and then equals it).
func TestHoldTrackerWakeAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var h holdTracker
		h.releases = make([]uint64, 0, 1+rng.Intn(8))
		var now uint64
		for step := 0; step < 300; step++ {
			now += uint64(rng.Intn(4))
			switch op := rng.Intn(10); {
			case op < 5:
				h.Add(now, now+uint64(rng.Intn(40)))
			case op < 8:
				h.Count(now)
			case op == 8:
				// A checkpoint taken now: only entries still held survive
				// a drain at an earlier cycle, so keep some of the rest.
				var rs []uint64
				for _, r := range h.releases {
					if r > now || rng.Intn(2) == 0 {
						rs = append(rs, r)
					}
				}
				h.releases = append(h.releases[:0], rs...)
				h.rebuild()
			}
			wantMax := scanMax(&h)
			wantNext := scanNext(&h, now)
			if got := h.next(now); got != wantNext {
				t.Fatalf("trial %d step %d: next(%d) = %d, scan says %d (releases %v)", trial, step, now, got, wantNext, h.releases)
			}
			if (h.maxRel > now) != (wantMax > now) || (h.maxRel > now && h.maxRel != wantMax) {
				t.Fatalf("trial %d step %d: maxRel %d at %d, latest tracked release %d", trial, step, h.maxRel, now, wantMax)
			}
		}
	}
}
