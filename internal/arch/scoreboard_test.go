package arch

import (
	"fmt"
	"testing"

	"occamy/internal/coproc"
	"occamy/internal/fault"
	"occamy/internal/workload"
)

// TestIssueScoreboardInvariants checks every co-processor's issue scoreboard
// against its queue, including that every producer a waiting instruction
// names still holds its pool slot, after every engine step (skip-ahead on, so
// quiescence probes and skipped windows run between the checks), on all four
// architectures: a flat pair, the 64-core clustered group, and a pair
// through a transient ExeBU failure whose issue gates throttle Private and
// FTS. CheckScoreboard also holds each co-processor's active and live row
// sets to their definition, CheckParked holds every parked row to its sleep
// mirror and its latch and every core parked on a full pool to a pool that
// is still full (so a missed wake fails at the cycle it is missed), and
// CheckMSHRs holds every cache's MSHR file in release order with exact
// per-requestor counts. Every few hundred cycles
// the state is also checkpointed and restored into a freshly built system,
// whose rebuilt scoreboard and row sets must match the live ones slot for
// slot and whose restored MSHR files must pass the same check.
func TestIssueScoreboardInvariants(t *testing.T) {
	short64 := wideGroup(64)
	for _, w := range short64.W {
		for _, k := range w.Phases {
			k.Repeats = 1
		}
	}
	scenarios := []struct {
		name   string
		sched  workload.CoSchedule
		opts   Options
		cycles uint64 // checked prefix of the run
		fork   uint64 // restore-comparison period
	}{
		{"pair", ckGroup(), Options{Seed: 11}, 1 << 62, 500},
		{"topo64", short64, Options{Seed: 5, Topology: &coproc.Topology{Clusters: 4, HopLatency: 2, HopBandwidth: 8}}, 2000, 1000},
		{"gated", ckGroup(), Options{Seed: 7, Faults: []fault.Fault{{Kind: fault.ExeBU, Count: 2, At: 300, For: 3000}}}, 1 << 62, 700},
	}
	for _, sc := range scenarios {
		for _, kind := range Kinds {
			t.Run(fmt.Sprintf("%s/%s", sc.name, kind), func(t *testing.T) {
				sys, err := Build(kind, sc.sched, sc.opts)
				if err != nil {
					t.Fatal(err)
				}
				var failure error
				nextFork := sc.fork
				done := func() bool {
					now := sys.Engine.Cycle()
					for _, cp := range sys.Clusters {
						if err := cp.CheckScoreboard(now); err != nil {
							failure = fmt.Errorf("cycle %d: %w", now, err)
							return true
						}
						if err := cp.CheckParked(now); err != nil {
							failure = fmt.Errorf("cycle %d: %w", now, err)
							return true
						}
					}
					for _, core := range sys.Cores {
						if err := core.CheckParked(); err != nil {
							failure = fmt.Errorf("cycle %d: %w", now, err)
							return true
						}
					}
					if err := sys.Hier.CheckMSHRs(); err != nil {
						failure = fmt.Errorf("cycle %d: %w", now, err)
						return true
					}
					if now >= nextFork {
						nextFork = now + sc.fork
						if err := compareRestored(sys, kind, sc.sched, sc.opts); err != nil {
							failure = fmt.Errorf("cycle %d: %w", now, err)
							return true
						}
					}
					return sys.Done() || now >= sc.cycles
				}
				if _, err := sys.Engine.RunUntil(done, 50_000_000); err != nil {
					t.Fatal(err)
				}
				if failure != nil {
					t.Fatal(failure)
				}
			})
		}
	}
}

// compareRestored checkpoints sys, restores the checkpoint into a freshly
// built system, checks the restored MSHR files and compares the two
// systems' scoreboards and row-set memberships core by core.
func compareRestored(sys *System, kind Kind, sched workload.CoSchedule, opts Options) error {
	fresh, err := Build(kind, sched, opts)
	if err != nil {
		return err
	}
	if err := fresh.RestoreCheckpoint(sys.Checkpoint()); err != nil {
		return err
	}
	if err := fresh.Hier.CheckMSHRs(); err != nil {
		return fmt.Errorf("restored: %w", err)
	}
	now := sys.Engine.Cycle()
	for k, cp := range sys.Clusters {
		for c := range sys.Cores {
			live, rebuilt := cp.ScoreboardString(c, now), fresh.Clusters[k].ScoreboardString(c, now)
			if live != rebuilt {
				return fmt.Errorf("cluster %d core %d: restored scoreboard differs\nlive:    %s\nrebuilt: %s", k, c, live, rebuilt)
			}
		}
	}
	return nil
}
