package occamy

import (
	"fmt"

	"occamy/internal/osched"
	"occamy/internal/workload"
)

// OversubscribedReport summarizes a time-sliced run of more tasks than
// cores on the elastic architecture (§5's OS interaction, realized).
type OversubscribedReport struct {
	// Cycles is the makespan of the whole task set.
	Cycles uint64
	// Switches is the number of preemptive context switches performed.
	Switches uint64
	// Repartitions counts lane-manager plan computations, including those
	// triggered by context save/restore.
	Repartitions uint64
	// Tasks lists the task names in scheduling order.
	Tasks []string
}

// RunOversubscribed time-slices the given workloads over `cores` CPU cores
// of an elastic system with the given slice length in cycles. Contexts —
// scalar registers, vector registers and the five EM-SIMD registers — are
// saved and restored at quiescent points per §5, and every task's results
// are verified against the host reference.
func RunOversubscribed(cores int, sliceCycles uint64, seed uint64, refs ...WorkloadRef) (*OversubscribedReport, error) {
	ws := make([]*workload.Workload, 0, len(refs))
	for _, r := range refs {
		ws = append(ws, r.inner)
	}
	sched, sys, compiled, err := osched.Oversubscribed(ws, cores, sliceCycles, seed, 400_000_000)
	if err != nil {
		return nil, err
	}
	for i, comp := range compiled {
		for p := range comp.Phases {
			if err := comp.Phases[p].CheckResults(sys.Hier.Mem, 2e-3); err != nil {
				return nil, fmt.Errorf("occamy: task %d (%s) verification: %w", i, ws[i].Name, err)
			}
		}
	}
	return &OversubscribedReport{
		Cycles:       sys.Engine.Cycle(),
		Switches:     sched.Switches,
		Repartitions: sys.Cplx.Repartitions(),
		Tasks:        sched.TaskNames(),
	}, nil
}
