package coproc

import "fmt"

// Topology describes a clustered machine: N co-processor instances, each
// owning an even shard of the machine's ExeBUs, reached from the CPU cores
// over a routed fabric. The zero value (or a nil *Topology at the arch layer)
// means the flat single-instance machine, wired without any routing layer.
type Topology struct {
	// Clusters is the number of co-processor instances (>= 1).
	Clusters int
	// CoresPerGroup is the width of one fabric group: cores in the same
	// group share a fabric position, and the hop distance between a core and
	// a cluster is the position difference. Zero defaults to Cores/Clusters,
	// which places each cluster adjacent to its natural core group.
	CoresPerGroup int
	// HopLatency is the fabric traversal cost in cycles per hop; a
	// transmission to a cluster d positions away arrives after
	// HopLatency*(1+d) cycles. Zero models the flat machine's direct wiring
	// (bit-identical timing to the unrouted build).
	HopLatency uint64
	// HopBandwidth caps how many transmissions one cluster accepts per
	// cycle across the fabric (0 = unlimited). Saturation refuses the
	// transmission; the core retries, and the wait lands in the existing
	// dispatch-full attribution bucket.
	HopBandwidth int
}

// MaxHopLatency bounds Topology.HopLatency, in cycles: the limit
// arch.MachineTuning puts on every latency, far below where a transmission's
// arrival cycle could wrap.
const MaxHopLatency = 1 << 20

// TopologyError reports a Topology field outside the range the fabric can
// realize.
type TopologyError struct {
	Field string // the Topology field, e.g. "HopLatency"
	Value any    // the rejected value
	Limit string // the rule it broke, e.g. "<= 1048576 cycles"
}

func (e *TopologyError) Error() string {
	return fmt.Sprintf("topology: %s = %v: must be %s", e.Field, e.Value, e.Limit)
}

// CheckFields checks the fields whose range does not depend on the machine,
// returning a *TopologyError for the first one out of range.
func (t Topology) CheckFields() error {
	switch {
	case t.Clusters < 1:
		return &TopologyError{"Clusters", t.Clusters, ">= 1 (omit the topology for the flat single-co-processor machine)"}
	case t.CoresPerGroup < 0:
		return &TopologyError{"CoresPerGroup", t.CoresPerGroup, ">= 0 (0 derives cores/clusters)"}
	case t.HopBandwidth < 0:
		return &TopologyError{"HopBandwidth", t.HopBandwidth, ">= 0 (0 means unlimited)"}
	case t.HopLatency > MaxHopLatency:
		return &TopologyError{"HopLatency", t.HopLatency, fmt.Sprintf("<= %d cycles", MaxHopLatency)}
	}
	return nil
}

// Validate checks the topology against the machine's core and ExeBU counts,
// returning actionable errors for machine descriptions loaded from flags or
// JSON (a *TopologyError for a field out of range).
func (t Topology) Validate(cores, exebus int) error {
	if err := t.CheckFields(); err != nil {
		return err
	}
	if cores%t.Clusters != 0 {
		return fmt.Errorf("topology: %d cores do not divide evenly over %d clusters", cores, t.Clusters)
	}
	if exebus%t.Clusters != 0 {
		return fmt.Errorf("topology: %d ExeBUs do not shard evenly over %d clusters", exebus, t.Clusters)
	}
	if exebus/t.Clusters < 1 {
		return fmt.Errorf("topology: %d ExeBUs cannot cover %d clusters (need >= 1 each)", exebus, t.Clusters)
	}
	if t.CoresPerGroup > 0 && cores%t.CoresPerGroup != 0 {
		return fmt.Errorf("topology: %d cores do not divide into groups of %d", cores, t.CoresPerGroup)
	}
	return nil
}

// groupWidth resolves CoresPerGroup against the machine's core count.
func (t Topology) groupWidth(cores int) int {
	if t.CoresPerGroup > 0 {
		return t.CoresPerGroup
	}
	w := cores / t.Clusters
	if w < 1 {
		w = 1
	}
	return w
}
