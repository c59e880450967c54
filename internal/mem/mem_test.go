package mem

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"occamy/internal/sim"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v float32) bool {
		a := uint64(addr)
		m.WriteF32(a, v)
		got := m.ReadF32(a)
		return got == v || (got != got && v != v) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	if m.ReadF32(0xDEADBEEF) != 0 {
		t.Fatal("untouched memory must read zero")
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 2) // straddles the first page boundary
	m.WriteF32(addr, 3.25)
	if got := m.ReadF32(addr); got != 3.25 {
		t.Fatalf("straddling read = %v, want 3.25", got)
	}
}

func TestMemoryFillAndSlice(t *testing.T) {
	m := NewMemory()
	m.FillF32(1024, 8, func(i int) float32 { return float32(i) * 2 })
	got := m.ReadF32Slice(1024, 8)
	for i, v := range got {
		if v != float32(i)*2 {
			t.Fatalf("elem %d = %v", i, v)
		}
	}
}

// FuzzMemoryF32s checks the page-wise ReadF32s and WriteF32s against the
// per-element ReadF32 and WriteF32 on twin memories: the same values bit for
// bit, the same bytes written and the same set of allocated pages (reads
// allocate none, writes exactly those the element path touches). Ranges of
// up to 32K elements start at any byte of the first six pages, so they
// cross page boundaries, straddle them when unaligned and run over absent
// pages; present selects which of the eight pages start out populated.
func FuzzMemoryF32s(f *testing.F) {
	f.Add(uint32(pageSize-8), uint16(4), uint8(0b11), int64(1))       // into a present page
	f.Add(uint32(pageSize-6), uint16(3), uint8(0b10), int64(2))       // straddle out of an absent page
	f.Add(uint32(2*pageSize-2), uint16(2), uint8(0b10), int64(3))     // straddle into an absent page
	f.Add(uint32(3*pageSize+12), uint16(30000), uint8(0), int64(4))   // absent pages only
	f.Add(uint32(pageSize+4), uint16(20000), uint8(0b1010), int64(5)) // whole page and beyond
	f.Add(uint32(5), uint16(0), uint8(0xff), int64(6))                // empty range
	f.Fuzz(func(t *testing.T, off uint32, n uint16, present uint8, seed int64) {
		addr := uint64(off) % (6 * pageSize)
		count := int(n) & 0x7fff
		rng := rand.New(rand.NewSource(seed))
		bulk := NewMemory()
		for p := uint64(0); p < 8; p++ {
			if present&(1<<p) != 0 {
				rng.Read(bulk.page(p<<pageBits, true))
			}
		}
		elem := NewMemory()
		elem.Restore(bulk.Snapshot())

		got := make([]float32, count)
		for i := range got {
			got[i] = -1 // stale contents every read must overwrite
		}
		bulk.ReadF32s(addr, got)
		for i, g := range got {
			if w := elem.ReadF32(addr + uint64(4*i)); math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("ReadF32s(%#x)[%d] = %#08x, ReadF32 gives %#08x", addr, i, math.Float32bits(g), math.Float32bits(w))
			}
		}
		if !reflect.DeepEqual(bulk.pages, elem.pages) {
			t.Fatalf("ReadF32s(%#x, %d elems) changed the allocated pages", addr, count)
		}

		src := make([]float32, count)
		for i := range src {
			src[i] = math.Float32frombits(rng.Uint32())
		}
		bulk.WriteF32s(addr, src)
		for i, v := range src {
			elem.WriteF32(addr+uint64(4*i), v)
		}
		if !reflect.DeepEqual(bulk.pages, elem.pages) {
			t.Fatalf("WriteF32s(%#x, %d elems) left memory different from WriteF32", addr, count)
		}
	})
}

func TestLineSpan(t *testing.T) {
	cases := []struct {
		addr  uint64
		size  int
		first uint64
		n     int
	}{
		{0, 1, 0, 1},
		{0, 64, 0, 1},
		{0, 65, 0, 2},
		{63, 2, 0, 2},
		{64, 64, 64, 1},
		{100, 0, 64, 1},
		{128, 256, 128, 4},
	}
	for _, c := range cases {
		first, n := lineSpan(c.addr, c.size)
		if first != c.first || n != c.n {
			t.Errorf("lineSpan(%d,%d) = (%d,%d), want (%d,%d)", c.addr, c.size, first, n, c.first, c.n)
		}
	}
}

func TestBWMeterSerializes(t *testing.T) {
	m := bwMeter{bytesPerCycle: 32}
	d1 := m.consume(0, 64) // 2 cycles
	d2 := m.consume(0, 64) // queued behind the first
	if d1 != 2 {
		t.Fatalf("first transfer done at %d, want 2", d1)
	}
	if d2 != 4 {
		t.Fatalf("second transfer done at %d, want 4", d2)
	}
	d3 := m.consume(100, 32) // idle gap: starts fresh
	if d3 != 101 {
		t.Fatalf("post-idle transfer done at %d, want 101", d3)
	}
}

func TestMissTrackerBoundsOverlap(t *testing.T) {
	tr := missTracker{slots: 2}
	if !tr.hasSlot(0, -1) {
		t.Fatal("fresh tracker must have slots")
	}
	tr.reserve(100, -1)
	tr.reserve(100, -1)
	if tr.hasSlot(0, -1) {
		t.Fatal("third overlapping reservation must fail")
	}
	if !tr.hasSlot(101, -1) {
		t.Fatal("reservation after completions retire must succeed")
	}
}

func TestMissTrackerPerRequestorQuota(t *testing.T) {
	tr := missTracker{slots: 4, quota: 2}
	tr.reserve(100, 0)
	tr.reserve(100, 0)
	if tr.hasSlot(0, 0) {
		t.Fatal("requestor 0 must hit its quota")
	}
	if !tr.hasSlot(0, 1) {
		t.Fatal("requestor 1 must still have quota")
	}
	if !tr.hasSlot(0, -1) {
		t.Fatal("unattributed requests bypass the quota")
	}
	tr.reserve(100, 1)
	tr.reserve(100, 1)
	if tr.hasSlot(0, 1) {
		t.Fatal("global slot cap must still bind")
	}
}

func newTestCache(size, ways int, lat uint64, next Port, stats *sim.Stats) *Cache {
	return NewCache(CacheConfig{
		Name: "c", SizeBytes: size, Ways: ways,
		LatencyCycles: lat, BytesPerCycle: 64, MissSlots: 8,
	}, next, stats)
}

func TestCacheHitAfterMiss(t *testing.T) {
	stats := sim.NewStats()
	dram := NewDRAM(DRAMConfig{LatencyCycles: 100, BytesPerCycle: 32}, stats)
	c := newTestCache(4096, 4, 4, dram, stats)

	done, ok := c.Access(0, 0x100, 4, false)
	if !ok {
		t.Fatal("first access rejected")
	}
	if done < 100 {
		t.Fatalf("miss completed at %d, want >= dram latency", done)
	}
	done2, ok := c.Access(done, 0x104, 4, false) // same line
	if !ok {
		t.Fatal("hit rejected")
	}
	if done2 > done+10 {
		t.Fatalf("hit took %d cycles", done2-done)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	stats := sim.NewStats()
	dram := NewDRAM(DRAMConfig{LatencyCycles: 10, BytesPerCycle: 64}, stats)
	// 2 ways x 2 sets = 4 lines of 64B -> 256B cache.
	c := newTestCache(256, 2, 1, dram, stats)

	// Three distinct lines mapping to set 0 (stride = numSets*64 = 128).
	now := uint64(0)
	for i, addr := range []uint64{0, 128, 256} {
		done, ok := c.Access(now, addr, 4, false)
		if !ok {
			t.Fatalf("access %d rejected", i)
		}
		now = done + 1
	}
	// Line 0 was LRU and must have been evicted -> miss again.
	missesBefore := c.Misses()
	if _, ok := c.Access(now, 0, 4, false); !ok {
		t.Fatal("re-access rejected")
	}
	if c.Misses() != missesBefore+1 {
		t.Fatal("LRU line should have been evicted")
	}
	// Line 256 is MRU and must still hit.
	hitsBefore := c.Hits()
	if _, ok := c.Access(now+50, 256, 4, false); !ok {
		t.Fatal("MRU access rejected")
	}
	if c.Hits() != hitsBefore+1 {
		t.Fatal("MRU line should have survived")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	stats := sim.NewStats()
	dram := NewDRAM(DRAMConfig{LatencyCycles: 10, BytesPerCycle: 64}, stats)
	c := newTestCache(256, 2, 1, dram, stats) // 2 sets

	now := uint64(0)
	d, _ := c.Access(now, 0, 4, true) // dirty line in set 0
	now = d + 1
	d, _ = c.Access(now, 128, 4, false)
	now = d + 1
	d, _ = c.Access(now, 256, 4, false) // evicts dirty line 0
	if stats.Get("c.writeback") != 1 {
		t.Fatalf("writebacks = %d, want 1", stats.Get("c.writeback"))
	}
	_ = d
}

func TestCacheMultiLineAccessCountsAllLines(t *testing.T) {
	stats := sim.NewStats()
	dram := NewDRAM(DRAMConfig{LatencyCycles: 10, BytesPerCycle: 1024}, stats)
	c := newTestCache(8192, 4, 1, dram, stats)
	if _, ok := c.Access(0, 0, 256, false); !ok { // 4 lines
		t.Fatal("rejected")
	}
	if c.Misses() != 4 {
		t.Fatalf("misses = %d, want 4", c.Misses())
	}
}

func TestCacheMSHRRejection(t *testing.T) {
	stats := sim.NewStats()
	dram := NewDRAM(DRAMConfig{LatencyCycles: 1000, BytesPerCycle: 64}, stats)
	c := NewCache(CacheConfig{
		Name: "c", SizeBytes: 8192, Ways: 4,
		LatencyCycles: 1, BytesPerCycle: 64, MissSlots: 2,
	}, dram, stats)
	if _, ok := c.Access(0, 0, 4, false); !ok {
		t.Fatal("miss 1 rejected")
	}
	if _, ok := c.Access(0, 64, 4, false); !ok {
		t.Fatal("miss 2 rejected")
	}
	if _, ok := c.Access(0, 128, 4, false); ok {
		t.Fatal("miss 3 should be rejected: MSHRs full")
	}
	if _, ok := c.Access(5000, 192, 4, false); !ok {
		t.Fatal("miss after drain should succeed")
	}
}

func TestDRAMBandwidthContention(t *testing.T) {
	d := NewDRAM(DRAMConfig{LatencyCycles: 100, BytesPerCycle: 32}, nil)
	// Two streams each asking 64B at the same cycle: the second is delayed
	// by the first's bandwidth occupancy.
	d1, _ := d.Access(0, 0, 64, false)
	d2, _ := d.Access(0, 4096, 64, false)
	if d2 <= d1 {
		t.Fatalf("contended access (%d) must finish after first (%d)", d2, d1)
	}
}

func TestHierarchyDefaultsMatchTable4(t *testing.T) {
	cfg := DefaultHierarchyConfig(2)
	if cfg.VecCache.SizeBytes != 128<<10 || cfg.VecCache.Ways != 8 || cfg.VecCache.LatencyCycles != 5 {
		t.Errorf("vec cache config %+v deviates from Table 4", cfg.VecCache)
	}
	if cfg.L2.SizeBytes != 8<<20 || cfg.L2.LatencyCycles != 18 {
		t.Errorf("L2 config %+v deviates from Table 4", cfg.L2)
	}
	if cfg.L1D.SizeBytes != 64<<10 || cfg.L1D.LatencyCycles != 4 {
		t.Errorf("L1D config %+v deviates from Table 4", cfg.L1D)
	}
	if cfg.DRAM.BytesPerCycle != 32 {
		t.Errorf("DRAM bandwidth %v B/cycle, want 32 (64GB/s @ 2GHz)", cfg.DRAM.BytesPerCycle)
	}
}

func TestHierarchyWiring(t *testing.T) {
	stats := sim.NewStats()
	h := NewHierarchy(DefaultHierarchyConfig(2), stats)
	if len(h.L1D) != 2 {
		t.Fatalf("L1D count = %d", len(h.L1D))
	}
	// A vector-cache miss must propagate into L2 and DRAM (the demand
	// fill plus the streaming prefetches behind it).
	if _, ok := h.VecCache.Access(0, 1<<30, 64, false); !ok {
		t.Fatal("access rejected")
	}
	wantFills := uint64(1 + 8) // demand + PrefetchDegree
	if stats.Get("l2.miss") != wantFills {
		t.Fatalf("l2 misses = %d, want %d", stats.Get("l2.miss"), wantFills)
	}
	if stats.Get("dram.reads") != wantFills {
		t.Fatalf("dram reads = %d, want %d", stats.Get("dram.reads"), wantFills)
	}
	// L1s of different cores are distinct caches.
	h.L1D[0].Access(100, 0, 4, false)
	if h.L1D[1].Hits()+h.L1D[1].Misses() != 0 {
		t.Fatal("core 1 L1 must be untouched by core 0 accesses")
	}
}

func TestHierarchySharedL2Visibility(t *testing.T) {
	stats := sim.NewStats()
	h := NewHierarchy(DefaultHierarchyConfig(2), stats)
	// Core 0 warms a line via its L1; the vector cache then hits in L2
	// for that line (its prefetches may miss beyond it, so compare hits).
	d, _ := h.L1D[0].Access(0, 4096, 4, false)
	l2HitsAfterWarm := stats.Get("l2.hit")
	h.VecCache.Access(d+10, 4096, 4, false)
	if stats.Get("l2.hit") != l2HitsAfterWarm+1 {
		t.Fatal("vector cache should hit the L2 line warmed by the scalar core")
	}
}

func TestCacheStreamingFootprintMissesInSmallCache(t *testing.T) {
	// A streaming footprint larger than the cache must keep missing on a
	// second pass (the memory-intensive workload behaviour).
	stats := sim.NewStats()
	dram := NewDRAM(DRAMConfig{LatencyCycles: 10, BytesPerCycle: 1 << 20}, stats)
	c := newTestCache(4096, 4, 1, dram, stats)
	now := uint64(0)
	pass := func() {
		for addr := uint64(0); addr < 16384; addr += 64 {
			d, ok := c.Access(now, addr, 64, false)
			if !ok {
				t.Fatal("rejected")
			}
			now = d
		}
	}
	pass()
	m1 := c.Misses()
	pass()
	if c.Misses()-m1 != m1 {
		t.Fatalf("second streaming pass misses = %d, want %d (no reuse possible)", c.Misses()-m1, m1)
	}
}
