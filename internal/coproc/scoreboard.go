package coproc

import (
	"fmt"
	"math/bits"
	"strings"
)

// The issue scoreboard is the dispatcher's wakeup logic (Figure 5): instead
// of re-evaluating every renamed instruction each cycle, the issue scan
// walks per-class bitmaps over the pool ring in age order and skips what
// cannot change.
//
//   - A compute whose producer has not issued is parked on that producer's
//     wait list. Issuing the producer is the only event that fixes its
//     completion cycle, so the producer re-arms its parked consumers then.
//   - A compute whose producers have all issued is armed: ready caches the
//     latest producer completion, and the scan tests it with one compare.
//     Until the earliest armed ready cycle the scan skips armed computes
//     altogether.
//   - Vector loads, stores and EM-SIMD instructions keep their own sets; the
//     scan masks a class out once its budget is spent or the LSU blocks.
//
// The scoreboard is derived state: it is a pure function of the queue, so
// checkpoints do not carry it and RestoreCheckpoint rebuilds it. Everything
// lives in fixed arrays beside the queue ring, so the tick stays
// allocation-free.

const sbWords = queueRing / 64

// slotSet is a bitmap over the pool ring's slots.
type slotSet [sbWords]uint64

func (s *slotSet) set(i int)      { s[i>>6] |= 1 << (i & 63) }
func (s *slotSet) clear(i int)    { s[i>>6] &^= 1 << (i & 63) }
func (s *slotSet) has(i int) bool { return s[i>>6]>>(i&63)&1 != 0 }

type scoreboard struct {
	compute slotSet // armed computes: every producer issued
	parked  slotSet // computes waiting on an unissued producer
	load    slotSet
	store   slotSet
	emsimd  slotSet
	// ready is an armed compute's cached dependence-ready cycle; minReady
	// lower-bounds it over every armed compute.
	ready    [queueRing]uint64
	minReady uint64
	// waitHead[p] is 1 + the slot of the first compute parked on the
	// producer in slot p (0: none); waitNext links the rest of the list
	// through the consumers' slots in the same encoding.
	waitHead [queueRing]uint16
	waitNext [queueRing]uint16
}

// allSlots is the mask that opens a class for scoreboard.next.
const allSlots = ^uint64(0)

// open returns allSlots when ok, else the mask that closes the class.
func open(ok bool) uint64 {
	if ok {
		return allSlots
	}
	return 0
}

// next returns the first position in [p, end) whose slot is an armed
// compute (under cm), a load (lm), a store (sm) or an EM-SIMD instruction,
// or end when there is none. Positions map to slots modulo the ring, so the
// walk is in age order across the ring's wrap.
func (sb *scoreboard) next(p, end int, cm, lm, sm uint64) int {
	for p < end {
		s := p & queueMask
		w := s >> 6
		u := (sb.compute[w]&cm | sb.load[w]&lm | sb.store[w]&sm | sb.emsimd[w]) >> (s & 63)
		if u != 0 {
			if p += bits.TrailingZeros64(u); p < end {
				return p
			}
			return end
		}
		p += 64 - s&63
	}
	return end
}

// firstWaiting returns the oldest position in [p, end) holding a compute,
// parked or armed, or end.
func (sb *scoreboard) firstWaiting(p, end int) int {
	for p < end {
		s := p & queueMask
		w := s >> 6
		if u := (sb.parked[w] | sb.compute[w]) >> (s & 63); u != 0 {
			if p += bits.TrailingZeros64(u); p < end {
				return p
			}
			return end
		}
		p += 64 - s&63
	}
	return end
}

// track enters the just-renamed instruction at position p into the
// scoreboard.
func (st *coreState) track(p int) {
	s := p & queueMask
	switch st.queue[s].kind {
	case kindEMSIMD:
		st.sb.emsimd.set(s)
	case kindMem:
		st.sb.load.set(s)
	case kindStore:
		st.sb.store.set(s)
	default:
		st.arm(s)
	}
}

// arm files the compute in slot s: parked on its first unissued producer,
// or armed with the cycle its last producer completes. A dependence's seq
// is its producer's stream position plus one, and the producer's slot still
// holds it (see queueRing).
func (st *coreState) arm(s int) {
	x := &st.queue[s]
	ready := x.depDone
	for _, d := range [3]uint64{x.dep1, x.dep2, x.dep3} {
		if d == 0 {
			continue
		}
		ps := int(d-1) & queueMask
		if p := &st.queue[ps]; p.issued {
			ready = max(ready, p.done)
			continue
		}
		st.sb.waitNext[s] = st.sb.waitHead[ps]
		st.sb.waitHead[ps] = uint16(s + 1)
		st.sb.parked.set(s)
		return
	}
	st.sb.ready[s] = ready
	st.sb.minReady = min(st.sb.minReady, ready)
	st.sb.compute.set(s)
}

// issue marks the instruction in slot s issued: it leaves the scan's sets,
// and every compute parked on it re-arms.
func (st *coreState) issue(s int) {
	st.queue[s].issued = true
	sb := &st.sb
	sb.compute.clear(s)
	sb.load.clear(s)
	sb.store.clear(s)
	sb.emsimd.clear(s)
	w := sb.waitHead[s]
	sb.waitHead[s] = 0
	for w != 0 {
		cs := int(w - 1)
		w = sb.waitNext[cs]
		sb.parked.clear(cs)
		st.arm(cs)
	}
}

// rebuildScoreboard re-derives the scoreboard from the queue: every renamed,
// unissued instruction is tracked again in age order.
func (st *coreState) rebuildScoreboard() {
	st.sb = scoreboard{}
	for p := st.head; p < st.renamed; p++ {
		if !st.at(p).issued {
			st.track(p)
		}
	}
}

// CheckScoreboard verifies every core's issue scoreboard against the queue
// at cycle now, for tests:
//   - the sets hold exactly the renamed, unissued instructions, each in the
//     set of its class (a compute is armed or parked);
//   - every producer such an instruction names still holds its pool slot
//     (the bound queueRing is sized for);
//   - every parked compute sits on the wait list of its first unissued
//     producer, which is renamed;
//   - every armed compute's producers have issued, and its cached ready
//     cycle gives depReady's answer for every cycle from now on and is no
//     earlier than the armed bound.
//
// It also verifies the row sets at the cycle boundary now:
//   - active holds exactly the rows whose pool is non-empty;
//   - live holds every row with a queued or held resource or a fault gate,
//     and a row outside live has a zero sleep memo;
//   - rebuilding both sets as RestoreCheckpoint does gives the running sets.
func (cp *Coproc) CheckScoreboard(now uint64) error {
	for c, st := range cp.cores {
		if err := st.checkScoreboard(now); err != nil {
			return fmt.Errorf("%s core %d: %w", cp.name, c, err)
		}
	}
	active, live := newRowSet(len(cp.cores)), newRowSet(len(cp.cores))
	cp.deriveRowSets(active, live)
	for c, st := range cp.cores {
		held := st.pool.held(now) > 0 || st.inflight.Count(now) > 0 || st.lhq.Count(now) > 0 || st.stq.Count(now) > 0
		switch {
		case cp.active.has(c) != (st.head < st.tail):
			return fmt.Errorf("%s core %d: active bit %v with %d instructions pooled", cp.name, c, cp.active.has(c), st.tail-st.head)
		case !cp.live.has(c) && (held || cp.gated(c)):
			return fmt.Errorf("%s core %d: not live while holding resources (%v) or gated (%v)", cp.name, c, held, cp.gated(c))
		case !cp.live.has(c) && cp.sleepFxs[c] != (sleepFx{}):
			return fmt.Errorf("%s core %d: not live but memoizes sleep effects %+v", cp.name, c, cp.sleepFxs[c])
		case cp.live.has(c) != live.has(c):
			return fmt.Errorf("%s core %d: live bit %v, a restore would rebuild %v", cp.name, c, cp.live.has(c), live.has(c))
		}
	}
	return nil
}

func (st *coreState) checkScoreboard(now uint64) error {
	sb := &st.sb
	var none slotSet
	if st.head == st.renamed && sb.compute == none && sb.parked == none && sb.load == none &&
		sb.store == none && sb.emsimd == none && sb.waitHead == [queueRing]uint16{} {
		return nil // nothing renamed and unissued, nothing tracked
	}
	// waitsOn maps a parked slot to 1 + its producer's slot (0: on no list).
	var waitsOn [queueRing]int
	for ps := 0; ps < queueRing; ps++ {
		for w := sb.waitHead[ps]; w != 0; w = sb.waitNext[w-1] {
			cs := int(w - 1)
			if waitsOn[cs] != 0 {
				return fmt.Errorf("slot %d is on two wait lists", cs)
			}
			waitsOn[cs] = ps + 1
		}
	}
	sets := [...]*slotSet{&sb.compute, &sb.parked, &sb.load, &sb.store, &sb.emsimd}
	for s := 0; s < queueRing; s++ {
		inSets := 0
		for _, set := range sets {
			if set.has(s) {
				inSets++
			}
		}
		// The stream position slot s holds in the renamed region, if any.
		p := st.head + (s-st.head)&queueMask
		if p >= st.renamed || st.queue[s].issued {
			if inSets != 0 || waitsOn[s] != 0 || sb.waitHead[s] != 0 {
				return fmt.Errorf("slot %d is tracked but holds no renamed, unissued instruction", s)
			}
			continue
		}
		x := &st.queue[s]
		want := &sb.compute
		switch {
		case x.kind == kindMem:
			want = &sb.load
		case x.kind == kindStore:
			want = &sb.store
		case x.kind == kindEMSIMD:
			want = &sb.emsimd
		case sb.parked.has(s):
			want = &sb.parked
		}
		if inSets != 1 || !want.has(s) {
			return fmt.Errorf("position %d (%s) is in %d sets, not its class's", p, x.Op, inSets)
		}
		first := -1 // the first unissued producer's position
		ready := x.depDone
		for _, d := range [3]uint64{x.dep1, x.dep2, x.dep3} {
			if d == 0 {
				continue
			}
			q := int(d - 1)
			switch pr := st.at(q); {
			case pr.seq != d:
				return fmt.Errorf("position %d: the slot of its producer at position %d holds seq %d", p, q, pr.seq)
			case pr.issued:
				ready = max(ready, pr.done)
			case first < 0:
				first = q
			}
		}
		if x.kind != kindCompute {
			continue
		}
		ps, parked := waitsOn[s]-1, waitsOn[s] != 0
		switch {
		case sb.parked.has(s) != parked:
			return fmt.Errorf("position %d: parked bit %v, on a wait list %v", p, sb.parked.has(s), parked)
		case parked && first < 0:
			return fmt.Errorf("position %d parked, but every producer has issued", p)
		case parked && (ps != first&queueMask || first >= st.renamed):
			return fmt.Errorf("position %d parked on slot %d, want its first unissued producer at position %d", p, ps, first)
		case !parked && first >= 0:
			return fmt.Errorf("position %d armed while its producer at position %d has not issued", p, first)
		case !parked && sb.ready[s] < sb.minReady:
			return fmt.Errorf("position %d: cached ready cycle %d below the armed bound %d", p, sb.ready[s], sb.minReady)
		case !parked && max(sb.ready[s], now) != max(ready, now):
			return fmt.Errorf("position %d: cached ready cycle %d, its producers say %d (now %d)", p, sb.ready[s], ready, now)
		case !parked && (sb.ready[s] <= now) != x.depsReady(st, now):
			return fmt.Errorf("position %d: cached ready cycle %d disagrees with depReady at %d", p, sb.ready[s], now)
		}
	}
	return nil
}

// ScoreboardString renders core c's issue scoreboard canonically by stream
// position, for tests, after the row's membership in the active and live
// row sets: A<cycle> is an armed compute (its ready cycle, or now if
// earlier), P<pos> a compute parked on the producer at pos, L, S and E
// loads, stores and EM-SIMD instructions.
func (cp *Coproc) ScoreboardString(c int, now uint64) string {
	st := cp.cores[c]
	sb := &st.sb
	parkedOn := map[int]int{}
	for ps := 0; ps < queueRing; ps++ {
		for w := sb.waitHead[ps]; w != 0; w = sb.waitNext[w-1] {
			parkedOn[int(w-1)] = st.head + (ps-st.head)&queueMask
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "active=%v live=%v ", cp.active.has(c), cp.live.has(c))
	for p := st.head; p < st.renamed; p++ {
		switch s := p & queueMask; {
		case sb.compute.has(s):
			fmt.Fprintf(&b, "%d:A%d ", p, max(sb.ready[s], now))
		case sb.parked.has(s):
			fmt.Fprintf(&b, "%d:P%d ", p, parkedOn[s])
		case sb.load.has(s):
			fmt.Fprintf(&b, "%d:L ", p)
		case sb.store.has(s):
			fmt.Fprintf(&b, "%d:S ", p)
		case sb.emsimd.has(s):
			fmt.Fprintf(&b, "%d:E ", p)
		}
	}
	return b.String()
}
