package coproc

import (
	"fmt"
	"math"
	"slices"
)

// holdTracker counts resources held by in-flight operations: each entry is a
// release cycle; Count reports how many are still held at a given cycle.
// Used for physical-register occupancy, load/store queue occupancy and the
// pipeline-drain check.
//
// Only the entries are checkpointed state; the two bounds are derived, so
// the state codec skips them and rebuild re-derives them after a restore.
type holdTracker struct {
	releases []uint64
	// nextRel is the earliest entry (MaxUint64 when there is none), or zero
	// — the conservative value, which just forces the next drain to scan —
	// from restore until that drain. drain is a no-op while now is below
	// it, which turns the per-cycle Count calls on busy trackers into a
	// compare instead of an O(entries) scan.
	nextRel uint64 `digest:"-"`
	// maxRel is the latest release ever added (entries expire out of
	// releases, this does not decay): lazy lastActive accounting needs the
	// last cycle the tracker held anything, even after drain dropped it.
	maxRel uint64 `digest:"-"`
}

func (t *holdTracker) drain(now uint64) {
	if now < t.nextRel {
		return // every entry releases after now: nothing to expire
	}
	live := t.releases[:0]
	next := uint64(math.MaxUint64)
	for _, r := range t.releases {
		if r > now {
			live = append(live, r)
			if r < next {
				next = r
			}
		}
	}
	t.releases = live
	t.nextRel = next
}

// Count returns the number of entries still held at cycle now.
func (t *holdTracker) Count(now uint64) int {
	t.drain(now)
	return len(t.releases)
}

// Add records, at cycle now, a resource held until cycle release. A full
// backing array is drained at now before it may grow: only Count drains
// otherwise, and callers that stop calling Count while they keep adding
// (Tick skips the inflight Count while the pool is non-empty) would grow it
// without bound. Dropping releases <= now is exact, since every query is at
// a cycle >= now. The array doubles when the drain leaves it more than half
// full, which keeps the drains amortized O(1) per Add.
func (t *holdTracker) Add(now, release uint64) {
	if len(t.releases) == cap(t.releases) {
		t.drain(now)
		if 2*len(t.releases) > cap(t.releases) {
			t.releases = slices.Grow(t.releases, cap(t.releases))
		}
	}
	t.releases = append(t.releases, release)
	if release < t.nextRel {
		t.nextRel = release
	}
	if release > t.maxRel {
		t.maxRel = release
	}
}

// rebuild re-derives the bounds after the entries were restored from a
// checkpoint: the drain bound is invalidated (the restored entries may
// release earlier than the current ones), and maxRel is recomputed from the
// surviving entries — history that expired before the checkpoint can only
// matter to windows the checkpoint already flushed, so the maximum over
// live entries is behaviourally identical.
func (t *holdTracker) rebuild() {
	t.nextRel = 0
	t.maxRel = 0
	for _, r := range t.releases {
		if r > t.maxRel {
			t.maxRel = r
		}
	}
}

// next returns the earliest release strictly after now, or sim.NeverWake
// when nothing is pending — the tracker's contribution to the skip-ahead
// engine's wake computation: Count(t) is constant for t in [now, next).
// After drain(now) every remaining entry releases after now and nextRel is
// their minimum, so no scan is needed.
func (t *holdTracker) next(now uint64) uint64 {
	t.drain(now)
	return t.nextRel
}

// ExpireHolds drops, on every row, the holds released by now. A tracker
// drains lazily, at its next query, so two runs of one simulation that
// queried at different cycles — a skipping run and a ticking one — can hold
// different expired entries; tests comparing their full state expire both
// first.
func (cp *Coproc) ExpireHolds(now uint64) {
	for _, st := range cp.cores {
		for _, t := range [...]*holdTracker{&st.inflight, &st.lhq, &st.stq, &st.pool.issued} {
			t.drain(now)
		}
	}
}

// CheckTrackerBound reports a hold tracker holding more entries than a core
// can have in flight — the renamed window plus the load and store queues —
// for tests: Add's drain keeps expired holds from piling up while nothing
// calls Count.
func (cp *Coproc) CheckTrackerBound() error {
	bound := window + cp.cfg.LHQ + cp.cfg.STQ
	for c, st := range cp.cores {
		for _, t := range [...]struct {
			name string
			h    *holdTracker
		}{{"inflight", &st.inflight}, {"lhq", &st.lhq}, {"stq", &st.stq}, {"regs", &st.pool.issued}} {
			if n := len(t.h.releases); n > bound {
				return fmt.Errorf("%s core %d: %s tracker holds %d entries, bound %d", cp.name, c, t.name, n, bound)
			}
		}
	}
	return nil
}

// regPool tracks physical-register occupancy for one rename namespace:
// destinations are allocated at rename (transmit) and released at writeback,
// so both queued and issued-but-incomplete instructions hold registers —
// the pressure that collapses FTS in Figure 13.
type regPool struct {
	queued int         // renamed, not yet issued
	issued holdTracker // issued, released at completion
}

func (p *regPool) held(now uint64) int { return p.queued + p.issued.Count(now) }

// issueBudget carries the per-cycle slot counts. With SharedIssue the same
// struct is consumed by every core; otherwise tickCore refills the compute
// and memory slots for each core.
type issueBudget struct {
	compute int
	mem     int
	emsimd  *int // EM-SIMD path slots are always global (one shared path)
}
