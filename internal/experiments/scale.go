package experiments

import (
	"fmt"
	"strings"

	"occamy/internal/arch"
	"occamy/internal/coproc"
	"occamy/internal/metrics"
	"occamy/internal/workload"
)

// This file extends the §7.6 scalability study (fig16.go) past the paper's
// four cores: the same all-architectures comparison swept over machine size
// (4 → 64 cores) and over the co-processor topology (1 → 4 clusters behind
// the routed fabric). Where Figure 16 asks "does elastic sharing still win
// with four tenants?", this study asks "does it keep winning when the lane
// manager is sharded and transmissions pay fabric hops?".

// ScaleHopLatency / ScaleHopBandwidth are the fabric parameters every
// clustered point uses: 2 cycles per hop and 8 accepted transmissions per
// cluster per cycle (the same point the steady-state benchmarks pin).
const (
	ScaleHopLatency   = 2
	ScaleHopBandwidth = 8
)

// ScalePoint is one (cores, clusters, architecture) run.
type ScalePoint struct {
	Cores    int
	Clusters int
	Kind     arch.Kind
	// Cycles is the makespan; Throughput normalizes completed vector
	// elements by it (elements per kilocycle — higher is better, and
	// comparable across machine sizes because the element total grows
	// with the core count).
	Cycles     uint64
	Throughput float64
	// Fairness is Jain's index over the per-core element rates
	// (elems/cycle): 1.0 when every tenant progresses equally, 1/n when
	// one tenant starves the rest.
	Fairness float64
	// Migrations and FabricRefusals expose the hierarchical machinery:
	// completed inter-cluster tenant moves and transmissions refused by
	// the per-cluster bandwidth limit.
	Migrations     uint64
	FabricRefusals uint64
}

// Scale holds the full sweep.
type Scale struct {
	Cores    []int
	Clusters []int
	Points   []ScalePoint
}

// ScaleGroup builds the n-core co-schedule the study runs: cores cycle
// through four Table 3 kernels with staggered element counts, so every
// cluster hosts a mix of compute- and memory-bound tenants and no two cores
// finish in lockstep.
func ScaleGroup(r *workload.Registry, n int) workload.CoSchedule {
	names := []string{"dotProd", "wsm51", "rho_eos1", "rgb2hsv"}
	s := workload.CoSchedule{Name: fmt.Sprintf("scale:%dc", n)}
	for c := 0; c < n; c++ {
		k := *r.Kernel(names[c%len(names)])
		k.Elems, k.Repeats = 512+64*(c%4), 20
		s.W = append(s.W, &workload.Workload{
			Name:   fmt.Sprintf("scale.c%d", c),
			Phases: []*workload.Kernel{&k},
		})
	}
	return s
}

// Scalability sweeps cores × clusters × architectures. Nil slices select the
// default grid (4→64 cores, 1→4 clusters); combinations the topology cannot
// divide evenly are skipped. Points run in parallel (each simulated system is
// independent and deterministic), bounded by Config.Parallel.
func (c Config) Scalability(cores, clusters []int) (*Scale, error) {
	if len(cores) == 0 {
		cores = []int{4, 8, 16, 32, 64}
	}
	if len(clusters) == 0 {
		clusters = []int{1, 2, 4}
	}
	out := &Scale{Cores: cores, Clusters: clusters}
	type job struct {
		n, k int
		kind arch.Kind
	}
	var jobs []job
	for _, n := range cores {
		for _, k := range clusters {
			if n%k != 0 || (4*n)%k != 0 {
				continue
			}
			for _, kind := range arch.Kinds {
				jobs = append(jobs, job{n, k, kind})
			}
		}
	}
	pts := make([]ScalePoint, len(jobs))
	err := c.runPoints("scale", len(jobs), func(i int) string {
		j := jobs[i]
		return fmt.Sprintf("%dc/%dcl/%s", j.n, j.k, j.kind)
	}, func(i int) error {
		j := jobs[i]
		opts := arch.Options{}
		if j.k > 1 {
			opts.Topology = &coproc.Topology{
				Clusters:     j.k,
				HopLatency:   ScaleHopLatency,
				HopBandwidth: ScaleHopBandwidth,
			}
		}
		_, res, err := c.runOne(j.kind, ScaleGroup(reg, j.n), opts)
		if err != nil {
			return fmt.Errorf("scale %dc/%dcl on %s: %w", j.n, j.k, j.kind, err)
		}
		rates := make([]float64, 0, len(res.Cores))
		for _, cr := range res.Cores {
			if cr.Cycles > 0 {
				rates = append(rates, float64(cr.Elems)/float64(cr.Cycles))
			}
		}
		pts[i] = ScalePoint{
			Cores: j.n, Clusters: j.k, Kind: j.kind,
			Cycles:         res.Cycles,
			Throughput:     1000 * float64(res.Elems) / float64(res.Cycles),
			Fairness:       metrics.Jain(rates),
			Migrations:     res.Migrations,
			FabricRefusals: res.FabricRefusals,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Points = pts
	return out, nil
}

// TotalCycles sums the simulated cycles across every sweep point.
func (s *Scale) TotalCycles() uint64 {
	var n uint64
	for i := range s.Points {
		n += s.Points[i].Cycles
	}
	return n
}

// Point returns the run at (cores, clusters, kind), or nil.
func (s *Scale) Point(cores, clusters int, kind arch.Kind) *ScalePoint {
	for i := range s.Points {
		p := &s.Points[i]
		if p.Cores == cores && p.Clusters == clusters && p.Kind == kind {
			return p
		}
	}
	return nil
}

// Render produces the per-architecture throughput/fairness curves.
func (s *Scale) Render() string {
	var b strings.Builder
	b.WriteString("Scalability: cores × clusters, all architectures\n")
	b.WriteString("(throughput in elements/kilocycle; fairness is Jain's index over per-core rates)\n\n")
	t := &metrics.Table{Header: []string{"Cores", "Clusters", "Arch", "Cycles", "Elems/kcyc", "Fairness", "Migr", "FabRefuse"}}
	for _, n := range s.Cores {
		for _, k := range s.Clusters {
			for _, kind := range arch.Kinds {
				p := s.Point(n, k, kind)
				if p == nil {
					continue
				}
				t.Add(fmt.Sprint(n), fmt.Sprint(k), kind.String(),
					fmt.Sprint(p.Cycles),
					fmt.Sprintf("%.1f", p.Throughput),
					fmt.Sprintf("%.3f", p.Fairness),
					fmt.Sprint(p.Migrations),
					fmt.Sprint(p.FabricRefusals))
			}
		}
	}
	b.WriteString(t.String())
	b.WriteString("\nReading: a flat 64-core machine funnels every tenant through one lane\nmanager; sharding it over clusters keeps the §5.2 pass per-cluster-sized\nwhile the global balance pass migrates tenants only on sustained imbalance.\n")
	return b.String()
}
