package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"
)

// The host the bounds were measured on (a 2-vCPU 2.1 GHz Xeon VM) runs in
// phases of seconds to minutes at up to twice or half its usual speed, from
// other tenants' load. So every host time behind an end-to-end metric is
// scaled by a probe of the host's speed, run between jobs while nothing else
// of the benchmark runs. The phases hit the memory system and the core: over
// 170 s of scale64 jobs, a random-access loop over 16 MiB (L3), one over
// 1 MiB (L2) and an integer loop each tracked the jobs' times (correlation
// 0.72, 0.74 and 0.64), and the geometric mean of the three tracked them
// best (0.79). That mean is the probe.
//
// The probe must read the host, not the program under test: it waits until
// no garbage-collection cycle is running, and it times the second of two
// passes over each table, so the table is back in cache whatever the job
// before it evicted. Interleaving fig10 jobs with and without an extra
// 32 MiB allocated and touched in every arch.Build (a scratch build of the
// simulator), the 16 MiB loop read 0.9% apart, and the corrected slowdown
// (8.0%) was not smaller than the raw one (7.3%).

const (
	// probeIters random read-modify-writes make one pass over a table.
	probeIters = 100000
	// probeWords is the L3 table, 16 MiB: well past the 2 MiB L2 and well
	// inside the L3 of the host the bounds were measured on. Its first
	// probeL2Words words, 1 MiB, are the L2 table.
	probeWords   = 1 << 21
	probeL2Words = 1 << 17
	// probeALUIters iterations of four integer recurrences make the core
	// loop.
	probeALUIters = 1000000
)

// probeNominal is each loop's typical time on that host: the L3 pass, the
// L2 pass and the integer loop. A corrected time is the time the work would
// have taken at that speed.
var probeNominal = [3]time.Duration{1415 * time.Microsecond, 287 * time.Microsecond, 2069 * time.Microsecond}

type prober struct {
	table []uint64
	sink  uint64
	rel   []float64 // every probe's time relative to nominal, for host.contention
}

// newProber maps the probe's table outside the Go heap, so it does not move
// the collector's heap goal, and touches every page of it, so its resident
// size is constant and peakRSSMB can leave it out.
func newProber() (*prober, error) {
	b, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe table: %w", err)
	}
	for i := range b {
		b[i] = byte(i)
	}
	return &prober{table: unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), probeWords)}, nil
}

// pass makes one fixed sequence of random read-modify-writes over the first
// words words of the table.
func (p *prober) pass(words int) {
	x, mask := uint64(88172645463325252), uint64(words-1)
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		p.table[j] += x
		p.sink += p.table[(j*7)&mask]
	}
}

// alu runs four independent integer recurrences.
//
//go:noinline
func (p *prober) alu() {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < probeALUIters; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c ^ (c >> 7) + a
		d = d ^ (d << 9) + b
	}
	p.sink += a + b + c + d
}

// factor runs one probe and returns the correction for host times measured
// next to it: the geometric mean of each loop's nominal time over its time.
func (p *prober) factor() float64 {
	// With the collector off, SetGCPercent returns only once no cycle is
	// running. It is restored at once: a cycle starts only on allocation,
	// and the loops allocate nothing. (Left off during the probe, it also
	// kept the scavenger from returning memory, and the peak RSS rose.)
	debug.SetGCPercent(debug.SetGCPercent(-1))
	var took [3]time.Duration
	for k, words := range []int{probeWords, probeL2Words} {
		p.pass(words) // warms the table
		t0 := time.Now()
		p.pass(words)
		took[k] = time.Since(t0)
	}
	t0 := time.Now()
	p.alu()
	took[2] = time.Since(t0)
	logRel := 0.0
	for k, d := range took {
		logRel += math.Log(d.Seconds() / probeNominal[k].Seconds())
	}
	rel := math.Exp(logRel / 3)
	p.rel = append(p.rel, rel)
	return 1 / rel
}

// contention is the median probe time relative to nominal: above 1, the host
// was slower than its typical speed.
func (p *prober) contention() float64 {
	return median(p.rel)
}
