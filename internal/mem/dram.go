package mem

import (
	"occamy/internal/digest"
	"occamy/internal/obs"
	"occamy/internal/sim"
)

// DRAMConfig describes main memory. Table 4 specifies 64 GB/s at a 2 GHz
// core clock, i.e. 32 bytes per core cycle of sustained bandwidth.
type DRAMConfig struct {
	Name          string
	LatencyCycles uint64
	BytesPerCycle float64
}

// DRAM is the bottom of the hierarchy: fixed latency plus a shared bandwidth
// meter. It never rejects requests (the memory controller queue is modeled as
// unbounded; upstream MSHRs bound the real overlap).
type DRAM struct {
	cfg DRAMConfig
	DRAMState
	// lat is the access-latency histogram; nil when the run is not
	// observed (a nil *Histogram ignores Observe).
	lat *obs.Histogram
	// Counter cells, registered at construction (nil without a stats
	// registry).
	cBytes, cWrites, cReads *uint64
}

// SetProbe attaches the observability probe (nil disables). The histogram
// pointer is cached so the access path stays a single nil check.
func (d *DRAM) SetProbe(p *obs.Probe) { d.lat = p.Hist(d.cfg.Name + ".latency") }

// NewDRAM returns main memory with the given parameters. Stats may be nil.
func NewDRAM(cfg DRAMConfig, stats *sim.Stats) *DRAM {
	if cfg.Name == "" {
		cfg.Name = "dram"
	}
	d := &DRAM{cfg: cfg, DRAMState: DRAMState{bwMeter{bytesPerCycle: cfg.BytesPerCycle}}}
	if stats != nil {
		d.cBytes = stats.Counter(cfg.Name + ".bytes")
		d.cWrites = stats.Counter(cfg.Name + ".writes")
		d.cReads = stats.Counter(cfg.Name + ".reads")
	}
	return d
}

// SetBWFactor derates (or restores) the sustained bandwidth to factor times
// the configured rate — the fault-injection token-rate cut. The meter's
// float occupancy state carries over, so a run where the factor stays 1.0 is
// bit-identical to one that never called this.
func (d *DRAM) SetBWFactor(factor float64) {
	d.bw.bytesPerCycle = d.cfg.BytesPerCycle * factor
}

// Access implements Port.
func (d *DRAM) Access(now uint64, addr uint64, size int, write bool) (uint64, bool) {
	if size <= 0 {
		size = 1
	}
	// The row access costs LatencyCycles; the data bus is then occupied
	// for size/BytesPerCycle cycles, so back-to-back requests queue on
	// the bus even when latency would otherwise hide them.
	xfer := d.bw.consume(now+d.cfg.LatencyCycles, size)
	d.lat.Observe(xfer - now)
	if d.cBytes != nil {
		*d.cBytes += uint64(size)
		if write {
			*d.cWrites++
		} else {
			*d.cReads++
		}
	}
	return xfer, true
}

// DRAMState is the DRAM's checkpointed timing state: the bandwidth meter's
// exact float occupancy and its (possibly fault-derated) rate. Counters
// live in the engine registry and snapshot there.
type DRAMState struct {
	bw bwMeter
}

// Restore rewinds the DRAM to a Snapshot.
func (d *DRAM) Restore(st DRAMState) { digest.Copy(&d.DRAMState, &st) }
