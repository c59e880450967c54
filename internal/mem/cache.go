package mem

import (
	"fmt"
	"math/bits"

	"occamy/internal/digest"
	"occamy/internal/sim"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name          string
	SizeBytes     int
	Ways          int
	LatencyCycles uint64  // hit latency
	BytesPerCycle float64 // sustained bandwidth into the requester
	MissSlots     int     // max overlapping outstanding misses (MSHRs)
	// MissQuota caps the outstanding misses of any single requestor
	// (AccessFrom's who); 0 disables the quota. Shared caches use it to
	// arbitrate fill slots fairly between cores.
	MissQuota int
	// PrefetchDegree enables a next-line streaming prefetcher: each
	// demand miss also fetches the following N lines (if MSHRs allow).
	// Vector units stream unit-stride, so this is what lets a narrow
	// vector length sustain full memory bandwidth — without it the
	// issue window cannot cover the DRAM bandwidth-delay product.
	PrefetchDegree int
}

// Cache is a set-associative, write-back, write-allocate timing cache with
// LRU replacement. It tracks tags only; data lives in the functional Memory.
type Cache struct {
	cfg CacheConfig
	CacheState
	next Port
	// setMask and setShift locate the set index in an address; tagShift
	// (setShift plus the set-index width) strips both from it.
	setMask  uint64
	setShift uint
	tagShift uint
	// Counter cells, registered at construction (nil without a stats
	// registry), so counting an access is a pointer increment.
	cHit, cMiss, cReject, cWriteback, cPrefetch *uint64
	// retryHits is ReplayRetries' reusable scratch buffer.
	retryHits []hitLine
}

// CacheState is a cache's checkpointed state: every tag-array line, the
// bandwidth meter's exact float occupancy (including any fault-injected
// derating), and the outstanding-miss reservations. Counter values are not
// in it: they live in the engine-wide sim.Stats registry, which is
// checkpointed as its own state.
type CacheState struct {
	lines []cacheLine // set-major: set s holds lines[s*Ways : (s+1)*Ways]
	bw    bwMeter
	miss  missTracker
}

// hitLine is one leading resident line of a replayed retry attempt.
type hitLine struct {
	way *cacheLine
	b   int
}

// cacheLine is one way of the tag array: the tag and the state bits share
// one word, beside the LRU word. Lines are 16 bytes with no padding, so a
// tag-array copy is one memmove and the checkpoint digest hashes the array
// as raw 64-bit words.
type cacheLine struct {
	meta uint64 // tag<<lineFlagBits | lineValid | lineDirty | linePrefetched
	lru  uint64 // last-touch stamp; larger = more recent
}

// The state bits of cacheLine.meta. linePrefetched marks a line brought in
// by the prefetcher and not yet demanded; the first demand hit re-arms the
// stream prefetch. A tag is an address shifted right by at least the 6
// line-offset bits, so it fits above the flags.
const (
	lineValid uint64 = 1 << iota
	lineDirty
	linePrefetched
)

const lineFlagBits = 3

// holds reports whether l is the valid line with the given tag.
func (l *cacheLine) holds(tag uint64) bool {
	return l.meta&^(lineDirty|linePrefetched) == tag<<lineFlagBits|lineValid
}

// NewCache builds a cache in front of next. Stats may be nil.
func NewCache(cfg CacheConfig, next Port, stats *sim.Stats) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("mem: bad cache config %+v", cfg))
	}
	numLines := cfg.SizeBytes / LineBytes
	numSets := numLines / cfg.Ways
	if numSets == 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("mem: %s: set count %d must be a positive power of two", cfg.Name, numSets))
	}
	if cfg.MissSlots <= 0 {
		cfg.MissSlots = 16
	}
	c := &Cache{
		cfg:  cfg,
		next: next,
		CacheState: CacheState{
			bw:   bwMeter{bytesPerCycle: cfg.BytesPerCycle},
			miss: missTracker{slots: cfg.MissSlots, quota: cfg.MissQuota},
		},
		setMask:  uint64(numSets - 1),
		setShift: 6, // log2(LineBytes)
		tagShift: 6 + uint(bits.TrailingZeros(uint(numSets))),
	}
	c.lines = make([]cacheLine, numSets*cfg.Ways)
	if stats != nil {
		c.cHit = stats.Counter(cfg.Name + ".hit")
		c.cMiss = stats.Counter(cfg.Name + ".miss")
		c.cReject = stats.Counter(cfg.Name + ".mshr_reject")
		c.cWriteback = stats.Counter(cfg.Name + ".writeback")
		c.cPrefetch = stats.Counter(cfg.Name + ".prefetch")
	}
	return c
}

// SetBWFactor derates (or restores) the cache's port bandwidth to factor
// times the configured rate — the fault-injection token-rate cut. The
// meter's float occupancy carries over, so a factor pinned at 1.0 leaves
// timing bit-identical.
func (c *Cache) SetBWFactor(factor float64) {
	c.bw.bytesPerCycle = c.cfg.BytesPerCycle * factor
}

// Access implements Port. Multi-line requests complete when their last line
// is available; each line consumes this cache's port bandwidth for the bytes
// actually requested (not the whole line — narrow vector accesses must not
// waste port width), and misses consume the next level's bandwidth for the
// full line fill.
func (c *Cache) Access(now uint64, addr uint64, size int, write bool) (uint64, bool) {
	return c.AccessFrom(now, addr, size, write, -1)
}

// AccessFrom is Access with a requestor id, used by shared caches to
// arbitrate MSHR slots fairly (see CacheConfig.MissQuota).
func (c *Cache) AccessFrom(now uint64, addr uint64, size int, write bool, who int) (uint64, bool) {
	if size <= 0 {
		size = 1
	}
	first, n := lineSpan(addr, size)
	end := addr + uint64(size)
	done := now
	for i := 0; i < n; i++ {
		lineAddr := first + uint64(i*LineBytes)
		// Bytes of this request that fall within the line.
		lo, hi := lineAddr, lineAddr+LineBytes
		if addr > lo {
			lo = addr
		}
		if end < hi {
			hi = end
		}
		lineDone, ok := c.accessLine(now, lineAddr, int(hi-lo), write, who)
		if !ok {
			return 0, false
		}
		done = maxU64(done, lineDone)
	}
	return done, true
}

func (c *Cache) accessLine(now uint64, lineAddr uint64, reqBytes int, write bool, who int) (uint64, bool) {
	// Hit path: the port moves only the requested bytes. The first demand
	// hit on a prefetched line chases the stream: it issues the next
	// prefetches so a unit-stride stream keeps its lines in flight
	// continuously.
	if l := c.lookup(lineAddr); l != nil {
		l.lru = now
		if write {
			l.meta |= lineDirty
		}
		if l.meta&linePrefetched != 0 {
			l.meta &^= linePrefetched
			c.prefetch(now, lineAddr, who)
		}
		c.count(c.cHit)
		xfer := c.bw.consume(now, reqBytes)
		return maxU64(xfer, now+c.cfg.LatencyCycles), true
	}

	// Miss path: fill from the next level, evicting the LRU way. The MSHR
	// check comes first so a rejected request consumes no downstream
	// bandwidth (retries must not inflate the next level's queue).
	if !c.miss.hasSlot(now, who) {
		c.count(c.cReject)
		return 0, false
	}
	fillDone, ok := c.next.Access(now+c.cfg.LatencyCycles, lineAddr, LineBytes, false)
	if !ok {
		return 0, false
	}
	c.count(c.cMiss)
	c.miss.reserve(fillDone, who)
	c.prefetch(now, lineAddr, who)
	meta := (lineAddr>>c.tagShift)<<lineFlagBits | lineValid
	if write {
		meta |= lineDirty
	}
	*c.evict(now, lineAddr) = cacheLine{meta: meta, lru: now}
	xfer := c.bw.consume(now, LineBytes)
	return maxU64(fillDone, xfer), true
}

// set returns the ways of the set lineAddr maps to.
func (c *Cache) set(lineAddr uint64) []cacheLine {
	w := uint64(c.cfg.Ways)
	base := ((lineAddr >> c.setShift) & c.setMask) * w
	return c.lines[base : base+w : base+w]
}

// lookup returns lineAddr's resident line, or nil when it is absent.
func (c *Cache) lookup(lineAddr uint64) *cacheLine {
	tag := lineAddr >> c.tagShift
	ways := c.set(lineAddr)
	for w := range ways {
		if ways[w].holds(tag) {
			return &ways[w]
		}
	}
	return nil
}

// evict picks the way of lineAddr's set to refill — the first invalid way,
// else the first way with the lowest LRU stamp — and writes a dirty victim
// back first. The write-back consumes next-level bandwidth but does not
// delay the fill (eviction buffers).
func (c *Cache) evict(now uint64, lineAddr uint64) *cacheLine {
	ways := c.set(lineAddr)
	victim := 0
	for w := range ways {
		if ways[w].meta&lineValid == 0 {
			victim = w
			break
		}
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	v := &ways[victim]
	if v.meta&(lineValid|lineDirty) == lineValid|lineDirty {
		set := (lineAddr >> c.setShift) & c.setMask
		wbAddr := (v.meta>>lineFlagBits)<<c.tagShift | set<<c.setShift
		c.next.Access(now, wbAddr, LineBytes, true)
		c.count(c.cWriteback)
	}
	return v
}

// ProbeRetry reports whether AccessFrom(now, addr, size, write, who) would
// be rejected with cycle-invariant side effects, and if so the earliest
// cycle at which the outcome could change. This is the skip-ahead probe for
// MSHR retry storms: AccessFrom walks the request's lines in order, so a
// retry either rejects on its FIRST missing line (a miss with no free MSHR
// slot) after repeating the exact same hit work on the leading resident
// lines — port bandwidth for each line's requested bytes, an LRU touch, a
// hit count — or it makes progress. The repeated form holds until an
// outstanding miss retires (reservations only come from accesses, and every
// potential requestor is quiescent while this probe's verdict is in force),
// so the wake is the tracker's earliest release. Three outcomes are NOT
// cycle-invariant and report false: a line that would start a fill, a
// prefetched line whose first demand hit would re-arm the stream, and a
// request that would complete. hasSlot's lazy retirement is the only state
// touched here; it is idempotent and time-indexed, so probing does not
// perturb timing.
func (c *Cache) ProbeRetry(now uint64, addr uint64, size int, write bool, who int) (uint64, bool) {
	if size <= 0 {
		size = 1
	}
	first, lines := lineSpan(addr, size)
	for i := 0; i < lines; i++ {
		if l := c.lookup(first + uint64(i*LineBytes)); l != nil {
			if l.meta&linePrefetched != 0 {
				return 0, false // first demand hit re-arms the prefetcher
			}
			continue
		}
		if c.miss.hasSlot(now, who) {
			return 0, false // the line would start a fill
		}
		return c.miss.nextRelease(), true
	}
	return 0, false // full hit: the access would complete
}

// ReplayRetries applies the bulk side effects of n elided retry attempts of
// AccessFrom(addr, size, write, who) at cycles [from, from+n), exactly as n
// real rejected attempts would have: per cycle, every leading resident line
// repeats its hit — consuming port bandwidth for the line's requested bytes,
// in line order — and the first missing line counts one MSHR reject. The
// bandwidth meter is advanced attempt by attempt with the same consume calls
// the real ticks would make, keeping its float state bit-identical; LRU
// stamps land on the final attempt cycle, the value the legacy path leaves
// behind. Call only for a window ProbeRetry approved at `from`.
func (c *Cache) ReplayRetries(from, n uint64, addr uint64, size int, write bool, who int) {
	if size <= 0 {
		size = 1
	}
	first, lines := lineSpan(addr, size)
	end := addr + uint64(size)
	hits := c.retryHits[:0]
	for i := 0; i < lines; i++ {
		lineAddr := first + uint64(i*LineBytes)
		way := c.lookup(lineAddr)
		if way == nil {
			break // the rejecting line; each attempt stops here
		}
		lo, hi := lineAddr, lineAddr+LineBytes
		if addr > lo {
			lo = addr
		}
		if end < hi {
			hi = end
		}
		hits = append(hits, hitLine{way, int(hi - lo)})
	}
	for t := from; t < from+n; t++ {
		for _, h := range hits {
			c.bw.consume(t, h.b)
		}
	}
	for _, h := range hits {
		h.way.lru = from + n - 1
		if write {
			h.way.meta |= lineDirty
		}
	}
	if c.cHit != nil {
		*c.cHit += uint64(len(hits)) * n
		*c.cReject += n
	}
	c.retryHits = hits[:0]
}

// prefetch issues next-line fills after a demand miss (attributed to the
// same requestor), skipping lines that are already resident and stopping
// when MSHRs run out.
func (c *Cache) prefetch(now uint64, lineAddr uint64, who int) {
	for i := 1; i <= c.cfg.PrefetchDegree; i++ {
		pf := lineAddr + uint64(i*LineBytes)
		if c.lookup(pf) != nil {
			continue
		}
		if !c.miss.hasSlot(now, who) {
			return
		}
		fillDone, ok := c.next.Access(now+c.cfg.LatencyCycles, pf, LineBytes, false)
		if !ok {
			return
		}
		c.miss.reserve(fillDone, who)
		c.install(now, pf)
		c.count(c.cPrefetch)
	}
}

// install places a prefetched line into its set, evicting LRU (with
// write-back). It installs with a slightly stale LRU stamp so demand lines
// outrank prefetches.
func (c *Cache) install(now uint64, lineAddr uint64) {
	lru := uint64(0)
	if now > 0 {
		lru = now - 1
	}
	meta := (lineAddr>>c.tagShift)<<lineFlagBits | lineValid | linePrefetched
	*c.evict(now, lineAddr) = cacheLine{meta: meta, lru: lru}
}

func (c *Cache) count(cell *uint64) {
	if cell != nil {
		*cell++
	}
}

// Hits and Misses report the demand access counts (requires a stats registry).
func (c *Cache) Hits() uint64 {
	if c.cHit == nil {
		return 0
	}
	return *c.cHit
}

// Misses reports the demand miss count.
func (c *Cache) Misses() uint64 {
	if c.cMiss == nil {
		return 0
	}
	return *c.cMiss
}

// Snapshot captures the cache's full timing state.
func (c *Cache) Snapshot() CacheState { return digest.Clone(&c.CacheState) }

// Restore rewinds the cache to a Snapshot taken on an identically configured
// instance, then re-derives the MSHR file's order and occupancy counts.
func (c *Cache) Restore(st CacheState) {
	digest.Copy(&c.CacheState, &st)
	c.miss.recompute()
}

// Corrupt flips one tag bit of the middle line of the snapshot's tag array —
// a stand-in for silent in-memory corruption of a stored checkpoint, used by
// the integrity tests and the serve layer's fault-injection hook. Applying
// it twice restores the snapshot. Callers hold the only reference paths
// into a snapshot, so this never races with a restore.
func (st *CacheState) Corrupt() { st.lines[len(st.lines)/2].meta ^= 1 << lineFlagBits }
