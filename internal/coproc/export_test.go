package coproc

import "occamy/internal/sim"

// scanNext is holdTracker.next's scanning form: the earliest release
// strictly after now, or sim.NeverWake. The tracker answers from its drain
// bound instead; the tests hold it to this.
func scanNext(t *holdTracker, now uint64) uint64 {
	next := uint64(sim.NeverWake)
	for _, r := range t.releases {
		if r > now && r < next {
			next = r
		}
	}
	return next
}

// scanMax is the scanning form of the latest release still tracked (0 when
// empty), which SkipTicks reads as maxRel.
func scanMax(t *holdTracker) uint64 {
	var m uint64
	for _, r := range t.releases {
		m = max(m, r)
	}
	return m
}

// NextWakeAllRows is NextWake over every row, with the scanning wake bound
// and without touching the sleep memo: the answer the live row set must
// reproduce.
func (cp *Coproc) NextWakeAllRows(now uint64) (uint64, bool) {
	wake := uint64(sim.NeverWake)
	if cp.emsimdBusyUntil > now {
		wake = cp.emsimdBusyUntil
	}
	for c, st := range cp.cores {
		_, w, ok := cp.coreSleep(c, now)
		if !ok {
			return 0, false
		}
		wake = min(wake, w, scanNext(&st.inflight, now))
	}
	return wake, true
}

// RingsAllocated counts the rows that have allocated their pool ring.
func (cp *Coproc) RingsAllocated() int {
	n := 0
	for _, st := range cp.cores {
		if st.queue != nil {
			n++
		}
	}
	return n
}
