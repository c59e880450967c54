package main

import (
	"fmt"
	"strings"

	"occamy/internal/arch"
	"occamy/internal/fault"
	"occamy/internal/serve"
	"occamy/internal/traffic"
	"occamy/internal/workload"
)

// The input guards reject generated jobs that would measure the wrong code
// path. A generator change that trips one fails the run before any timing.

// scalarThreshold is compiler.Options' default ScalarThreshold: a strip loop
// over fewer elements takes the compiler's scalar version and issues no SIMD
// work. (The 64-core group at Scale 0.1 does exactly that: zero SIMD issue,
// and identical cycles on all four architectures.)
const scalarThreshold = 128

// cacheCap is serve.Options' default CacheCap, the checkpoint-cache size.
const cacheCap = 8

// guardVectorTrips rejects a schedule with a strip loop below the scalar
// threshold.
func guardVectorTrips(s workload.CoSchedule) error {
	for _, w := range s.W {
		for _, k := range w.Phases {
			if k.Elems < scalarThreshold {
				return fmt.Errorf("%s: kernel %s runs %d elements, below the compiler's %d-element scalar threshold",
					s.Name, k.Name, k.Elems, scalarThreshold)
			}
		}
	}
	return nil
}

// guardIssued rejects a finished run in which some core issued no SIMD
// compute instruction.
func guardIssued(res *arch.Result) error {
	for c, cr := range res.Cores {
		if cr.ComputeIssued == 0 {
			return fmt.Errorf("core %d (%s) issued no SIMD work", c, cr.Workload)
		}
	}
	return nil
}

// guardTraffic rejects a traffic spec whose shortest task (the spec's
// elements less the 40% lifetime jitter) would fall below the scalar
// threshold.
func guardTraffic(spec string) error {
	s, err := traffic.ParseSpec(spec)
	if err != nil {
		return err
	}
	s.ApplyDefaults()
	if min := s.Elems * 6 / 10; min < scalarThreshold {
		return fmt.Errorf("traffic %q: tasks as short as %d elements, below the %d-element scalar threshold",
			spec, min, scalarThreshold)
	}
	return nil
}

// guardCampaign rejects a campaign pair whose strip loops fall below the
// scalar threshold, or a fault point of the menu that could stall it.
func guardCampaign(pair []string, menu []string, seed uint64) error {
	reg := workload.NewRegistry()
	s := workload.CoSchedule{Name: strings.Join(pair, "+")}
	for _, w := range pair {
		s.W = append(s.W, reg.Workload(w))
	}
	if err := guardVectorTrips(s); err != nil {
		return err
	}
	share, err := vlsMinShare(s, seed)
	if err != nil {
		return err
	}
	for _, fp := range menu {
		if err := guardFaultPoint(fp, share); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	return nil
}

// vlsMinShare is the smallest static VLS partition (in ExeBUs) the schedule
// gets.
func vlsMinShare(s workload.CoSchedule, seed uint64) (int, error) {
	sys, err := arch.Build(arch.VLS, s, arch.Options{Seed: seed})
	if err != nil {
		return 0, err
	}
	min := sys.StaticVLs[0]
	for _, v := range sys.StaticVLs[1:] {
		if v < min {
			min = v
		}
	}
	return min, nil
}

// guardFaultPoint rejects a campaign fault point that could stall an
// architecture: failing as many ExeBUs as a VLS core's static share leaves
// that core no lanes, its run stalls, and serve retries the watchdog stall
// as a transient failure, three attempts of two million cycles each. Below
// the smallest share, every core keeps a lane whichever units fail.
func guardFaultPoint(point string, minShare int) error {
	faults, err := fault.ParseSpec(point)
	if err != nil {
		return err
	}
	for _, f := range faults {
		if f.Kind == fault.ExeBU && f.Count >= minShare {
			return fmt.Errorf("fault point %q fails %d ExeBUs, the smallest VLS share is %d", point, f.Count, minShare)
		}
	}
	return nil
}

// guardWarmKeys rejects a job list whose campaigns need more distinct
// warm-up checkpoints than the cache holds: with no eviction, the cache's
// hit rate equals the share of campaigns that repeat a warm-up exactly.
func guardWarmKeys(specs []serve.JobSpec) error {
	keys := map[uint64]bool{}
	for i := range specs {
		if specs[i].Kind == "campaign" {
			keys[specs[i].WarmKey()] = true
		}
	}
	if len(keys) > cacheCap {
		return fmt.Errorf("%d distinct warm-up keys, the checkpoint cache holds %d", len(keys), cacheCap)
	}
	return nil
}
