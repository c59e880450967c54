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
// empty), which settle reads as maxRel.
func scanMax(t *holdTracker) uint64 {
	var m uint64
	for _, r := range t.releases {
		m = max(m, r)
	}
	return m
}

// NextWakeHomeRows is NextWake over every home row, with the scanning wake
// bound and without latching any row's effects: the answer the live row set
// must reproduce.
func (cp *Coproc) NextWakeHomeRows(now uint64) (uint64, bool) {
	wake := uint64(sim.NeverWake)
	if cp.emsimdBusyUntil > now {
		wake = cp.emsimdBusyUntil
	}
	for c := cp.home.next(0); c < len(cp.cores); c = cp.home.next(c + 1) {
		_, w, ok := cp.coreSleep(c, now)
		if !ok {
			return 0, false
		}
		wake = min(wake, w, scanNext(&cp.cores[c].inflight, now))
	}
	return wake, true
}

// Row returns core c's row, for identity checks.
func (cp *Coproc) Row(c int) any { return cp.cores[c] }

// Hosts reports whether core c's row is one of the instance's home rows.
func (cp *Coproc) Hosts(c int) bool { return cp.home.has(c) }
