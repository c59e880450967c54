package coproc

// doneRing records issued instructions' completion cycles, indexed by their
// monotonically increasing per-core sequence numbers. It replaces a map that
// would otherwise need periodic pruning: a slot overwritten by a newer
// sequence number means its previous occupant issued at least ringSize
// instructions earlier, far past any realistic completion latency.
const (
	ringBits = 14
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// doneEntry pairs a slot's occupant with its completion cycle so a lookup
// touches one cache line, not one per array.
type doneEntry struct {
	seq  uint64
	done uint64
}

type doneRing struct {
	entries []doneEntry
}

func (r *doneRing) init() {
	r.entries = make([]doneEntry, ringSize)
}

// set records seq's completion cycle and returns the completion cycle of
// the entry it overwrites (zero for a never-written slot).
func (r *doneRing) set(seq, done uint64) (evicted uint64) {
	e := &r.entries[seq&ringMask]
	evicted = e.done
	*e = doneEntry{seq: seq, done: done}
	return evicted
}

// Lookup outcomes.
const (
	ringMiss  = iota // sequence number not issued yet
	ringHit          // completion cycle available
	ringOlder        // overwritten by a newer entry: completed long ago
)

func (r *doneRing) get(seq uint64) (done uint64, state int) {
	e := &r.entries[seq&ringMask]
	switch {
	case e.seq == seq:
		return e.done, ringHit
	case e.seq > seq:
		return 0, ringOlder
	default:
		return 0, ringMiss
	}
}
