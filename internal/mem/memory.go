// Package mem models the memory system of Table 4: per-core 64 KB L1 data
// caches for the scalar cores, the co-processor's 128 KB 8-way vector cache,
// a shared unified 8 MB L2, and a 64 GB/s DRAM — all with 64-byte lines.
//
// The package separates *function* from *timing*:
//
//   - Memory is the flat functional backing store holding real data values;
//     reads and writes always succeed and are instantaneous. The simulator
//     uses it to give vector instructions value-level semantics.
//   - Cache and DRAM model timing only (tags, LRU, latency, per-cycle
//     bandwidth, bounded outstanding misses). A request returns the cycle at
//     which the data would be available, which is how shared-bandwidth
//     contention between co-running workloads arises.
package mem

import (
	"encoding/binary"
	"math"

	"occamy/internal/digest"
)

// pageBits selects the functional-page size (64 KiB) for the sparse backing
// store; workload footprints of hundreds of MB stay cheap to allocate.
const pageBits = 16

const pageSize = 1 << pageBits

// Memory is the sparse functional backing store. The zero value is not
// usable; create with NewMemory.
type Memory struct {
	MemoryState
	// index finds a page by page number; lastIdx/lastPage cache the last
	// page touched. Both are derived from pages.
	index    map[uint64][]byte
	lastIdx  uint64
	lastPage []byte
}

// MemoryState is the functional address space's checkpointed state: every
// allocated page, in allocation order. Workload footprints are tens of MB,
// so this is the bulk of a system checkpoint's size — but it is taken once
// per sweep, not per point.
type MemoryState struct {
	pages []memPage
}

// memPage is one allocated page and its page number.
type memPage struct {
	idx  uint64
	data []byte
}

// NewMemory returns an empty address space; all bytes read as zero.
func NewMemory() *Memory {
	return &Memory{index: make(map[uint64][]byte)}
}

func (m *Memory) page(addr uint64, create bool) []byte {
	idx := addr >> pageBits
	if m.lastPage != nil && idx == m.lastIdx {
		return m.lastPage
	}
	p, ok := m.index[idx]
	if !ok {
		if !create {
			return nil
		}
		p = make([]byte, pageSize)
		m.pages = append(m.pages, memPage{idx, p})
		m.index[idx] = p
	}
	m.lastIdx, m.lastPage = idx, p
	return p
}

// ReadF32 reads a little-endian float32 at addr.
func (m *Memory) ReadF32(addr uint64) float32 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	off := addr & (pageSize - 1)
	if off+4 > pageSize {
		// Straddles a page boundary; assemble byte-wise.
		var raw uint32
		for i := uint64(0); i < 4; i++ {
			raw |= uint32(m.readByte(addr+i)) << (8 * i)
		}
		return math.Float32frombits(raw)
	}
	raw := uint32(p[off]) | uint32(p[off+1])<<8 | uint32(p[off+2])<<16 | uint32(p[off+3])<<24
	return math.Float32frombits(raw)
}

// WriteF32 writes a little-endian float32 at addr.
func (m *Memory) WriteF32(addr uint64, v float32) {
	raw := math.Float32bits(v)
	p := m.page(addr, true)
	off := addr & (pageSize - 1)
	if off+4 > pageSize {
		for i := uint64(0); i < 4; i++ {
			m.writeByte(addr+i, byte(raw>>(8*i)))
		}
		return
	}
	p[off] = byte(raw)
	p[off+1] = byte(raw >> 8)
	p[off+2] = byte(raw >> 16)
	p[off+3] = byte(raw >> 24)
}

func (m *Memory) readByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

func (m *Memory) writeByte(addr uint64, v byte) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// FillF32 writes n consecutive float32 values starting at addr using gen(i).
func (m *Memory) FillF32(addr uint64, n int, gen func(i int) float32) {
	for i := 0; i < n; i++ {
		m.WriteF32(addr+uint64(4*i), gen(i))
	}
}

// pageRun returns how many of the n consecutive float32 values starting at
// addr lie whole inside addr's page; zero means the first one straddles the
// page boundary.
func pageRun(addr uint64, n int) int {
	if r := int((pageSize - addr&(pageSize-1)) / 4); r < n {
		return r
	}
	return n
}

// ReadF32s reads len(dst) consecutive float32 values starting at addr into
// dst: the result of ReadF32 at addr, addr+4, ..., looking the page up once
// per page instead of once per element. Only an element that straddles a
// page boundary takes the per-element path.
func (m *Memory) ReadF32s(addr uint64, dst []float32) {
	for len(dst) > 0 {
		n := pageRun(addr, len(dst))
		if n == 0 {
			dst[0] = m.ReadF32(addr)
			addr, dst = addr+4, dst[1:]
			continue
		}
		if p := m.page(addr, false); p == nil {
			clear(dst[:n])
		} else {
			b := p[addr&(pageSize-1):]
			for i := range dst[:n] {
				dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
			}
		}
		addr, dst = addr+uint64(4*n), dst[n:]
	}
}

// WriteF32s writes src as consecutive float32 values starting at addr: the
// effect of WriteF32 at addr, addr+4, ..., page by page (see ReadF32s). An
// empty src allocates no page.
func (m *Memory) WriteF32s(addr uint64, src []float32) {
	for len(src) > 0 {
		n := pageRun(addr, len(src))
		if n == 0 {
			m.WriteF32(addr, src[0])
			addr, src = addr+4, src[1:]
			continue
		}
		b := m.page(addr, true)[addr&(pageSize-1):]
		for i, v := range src[:n] {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		addr, src = addr+uint64(4*n), src[n:]
	}
}

// ReadF32Slice reads n consecutive float32 values starting at addr.
func (m *Memory) ReadF32Slice(addr uint64, n int) []float32 {
	out := make([]float32, n)
	m.ReadF32s(addr, out)
	return out
}

// Snapshot deep-copies every allocated page.
func (m *Memory) Snapshot() MemoryState { return digest.Clone(&m.MemoryState) }

// Restore rewinds the address space to a Snapshot: pages allocated since
// are dropped, and the snapshot's pages are copied in (over the pages this
// memory already holds where they line up), so the restored memory does not
// alias the checkpoint and it can be restored again. The page index is
// rebuilt.
func (m *Memory) Restore(st MemoryState) {
	digest.Copy(&m.MemoryState, &st)
	clear(m.index)
	for _, p := range m.pages {
		m.index[p.idx] = p.data
	}
	m.lastIdx, m.lastPage = 0, nil
}
