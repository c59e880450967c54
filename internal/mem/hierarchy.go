package mem

import (
	"fmt"

	"occamy/internal/obs"
	"occamy/internal/sim"
)

// HierarchyConfig gathers the Table 4 memory parameters.
type HierarchyConfig struct {
	Cores int

	L1D      CacheConfig
	VecCache CacheConfig
	L2       CacheConfig
	DRAM     DRAMConfig
}

// DefaultHierarchyConfig returns the Table 4 configuration for the given core
// count: 64 KB private L1D (4-cycle), 128 KB 8-way vector cache (5-cycle),
// 8 MB shared L2 (18-cycle), 64 GB/s DRAM; all lines 64 B.
func DefaultHierarchyConfig(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores: cores,
		L1D: CacheConfig{
			Name:          "l1d",
			SizeBytes:     64 << 10,
			Ways:          4,
			LatencyCycles: 4,
			BytesPerCycle: 64,
			MissSlots:     8,
		},
		VecCache: CacheConfig{
			Name:          "vec",
			SizeBytes:     128 << 10,
			Ways:          8,
			LatencyCycles: 5,
			BytesPerCycle: 128, // 2 x 64B/cycle ports (Figure 5)
			// Enough outstanding fills to cover the DRAM
			// bandwidth-delay product (~120 cycles x 0.5 lines/cycle),
			// so streaming workloads are bandwidth- not MSHR-limited.
			MissSlots: 64,
			// Unit-stride streaming prefetch: lets narrow vector
			// lengths sustain full memory bandwidth (see CacheConfig).
			PrefetchDegree: 8,
		},
		L2: CacheConfig{
			Name:          "l2",
			SizeBytes:     8 << 20,
			Ways:          16,
			LatencyCycles: 18,
			BytesPerCycle: 64, // 1 line/cycle (Figure 7(b))
			MissSlots:     96,
		},
		DRAM: DRAMConfig{
			Name: "dram",
			// Effective latency of a streaming (row-buffer-friendly)
			// access pattern; bandwidth is Table 4's 64 GB/s.
			LatencyCycles: 60,
			BytesPerCycle: 32, // 64 GB/s at 2 GHz
		},
	}
}

// Hierarchy wires the levels together: each core's L1D and the single vector
// cache all miss into one shared L2, which misses into DRAM. This mirrors
// Figure 4 (vector cache beside the scalar L1s, unified L2 below).
type Hierarchy struct {
	Mem      *Memory
	L1D      []*Cache // one per core
	VecCache *Cache
	L2       *Cache
	DRAM     *DRAM
}

// NewHierarchy builds the hierarchy. Stats may be nil.
func NewHierarchy(cfg HierarchyConfig, stats *sim.Stats) *Hierarchy {
	if cfg.Cores <= 0 {
		panic("mem: hierarchy needs at least one core")
	}
	dram := NewDRAM(cfg.DRAM, stats)
	l2 := NewCache(cfg.L2, dram, stats)
	h := &Hierarchy{
		Mem:  NewMemory(),
		L2:   l2,
		DRAM: dram,
	}
	vcCfg := cfg.VecCache
	if vcCfg.MissQuota == 0 {
		// Fair fill-slot split between cores, with headroom.
		vcCfg.MissQuota = vcCfg.MissSlots * 3 / (4 * cfg.Cores) * 2
		if vcCfg.MissQuota <= 0 {
			vcCfg.MissQuota = vcCfg.MissSlots
		}
	}
	h.VecCache = NewCache(vcCfg, l2, stats)
	for c := 0; c < cfg.Cores; c++ {
		l1Cfg := cfg.L1D
		l1Cfg.Name = fmt.Sprintf("%s%d", cfg.L1D.Name, c)
		h.L1D = append(h.L1D, NewCache(l1Cfg, l2, stats))
	}
	return h
}

// SetProbe attaches the observability probe to the levels that record
// latency histograms (nil disables). Per-core bandwidth-stall attribution is
// signaled from the co-processor's LSU, which sees which core was refused.
func (h *Hierarchy) SetProbe(p *obs.Probe) {
	h.DRAM.SetProbe(p)
}

// CheckMSHRs verifies every cache level's MSHR file, for tests: outstanding
// misses are kept in release order and within the slot count, and each
// requestor's occupancy count equals a recount.
func (h *Hierarchy) CheckMSHRs() error {
	for _, c := range append([]*Cache{h.VecCache, h.L2}, h.L1D...) {
		if err := c.miss.check(); err != nil {
			return fmt.Errorf("mem: %s: %w", c.cfg.Name, err)
		}
	}
	return nil
}

// HierarchyState is the whole memory system's state in a checkpoint's
// layout: functional contents plus every level's timing state.
type HierarchyState struct {
	Mem      MemoryState
	L1D      []CacheState
	VecCache CacheState
	L2       CacheState
	DRAM     DRAMState
}

// State returns the hierarchy's live state, sharing storage with it: clone
// it before the hierarchy runs on.
func (h *Hierarchy) State() HierarchyState {
	st := HierarchyState{
		Mem:      h.Mem.MemoryState,
		VecCache: h.VecCache.CacheState,
		L2:       h.L2.CacheState,
		DRAM:     h.DRAM.DRAMState,
	}
	for _, l1 := range h.L1D {
		st.L1D = append(st.L1D, l1.CacheState)
	}
	return st
}

// Restore rewinds the hierarchy to a cloned State taken on an identically
// configured instance.
func (h *Hierarchy) Restore(st HierarchyState) {
	h.Mem.Restore(st.Mem)
	h.VecCache.Restore(st.VecCache)
	h.L2.Restore(st.L2)
	h.DRAM.Restore(st.DRAM)
	for c, l1 := range h.L1D {
		l1.Restore(st.L1D[c])
	}
}
