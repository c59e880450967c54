package arch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"occamy/internal/coproc"
	"occamy/internal/obs"
	"occamy/internal/workload"
)

// TestCycleAttributionConservation is the ISSUE's headline invariant: on
// every architecture, every core's cycle-attribution buckets sum to exactly
// that core's reported Cycles — no cycle lost, none double-counted. It
// doubles as a wiring check on the hardware models' signals (a trim failure
// means a model signaled activity after its core supposedly finished).
func TestCycleAttributionConservation(t *testing.T) {
	sched := testSched(t)
	for _, kind := range Kinds {
		sys, err := Build(kind, sched, Options{Seed: 7, Obs: obs.Options{Attribution: true}})
		if err != nil {
			t.Fatalf("Build(%s): %v", kind, err)
		}
		res, err := sys.Run(40_000_000)
		if err != nil {
			t.Fatalf("Run(%s): %v", kind, err)
		}
		for c, cr := range res.Cores {
			a := cr.Attribution
			if a == nil {
				t.Fatalf("%s core %d: no attribution despite Obs enabled", kind, c)
			}
			if cr.AttributionErr != "" {
				t.Fatalf("%s core %d: attribution error: %s", kind, c, cr.AttributionErr)
			}
			if sum := a.Sum(); sum != cr.Cycles {
				t.Errorf("%s core %d: buckets sum to %d, core ran %d cycles\nbuckets: %v",
					kind, c, sum, cr.Cycles, a.Buckets)
			}
			if a.Total != cr.Cycles {
				t.Errorf("%s core %d: attribution total %d != cycles %d", kind, c, a.Total, cr.Cycles)
			}
			if a.Get(obs.BucketVecIssue) == 0 {
				t.Errorf("%s core %d: no vec-issue cycles on a SIMD workload", kind, c)
			}
		}
		// Architecture-specific spot checks on the taxonomy.
		switch kind {
		case Occamy:
			drain := res.Cores[0].Attribution.Get(obs.BucketDrainReconfig) +
				res.Cores[1].Attribution.Get(obs.BucketDrainReconfig)
			if res.Reconfigures > 0 && drain == 0 {
				t.Errorf("Occamy: %d reconfigures but no drain-reconfig cycles", res.Reconfigures)
			}
		case FTS:
			stalls := res.Cores[0].Attribution.Get(obs.BucketRenameStall) +
				res.Cores[1].Attribution.Get(obs.BucketRenameStall)
			if res.Cores[0].RenameStalls+res.Cores[1].RenameStalls > 0 && stalls == 0 {
				t.Errorf("FTS: rename stalls counted but no rename-stall cycles attributed")
			}
		}
	}
}

// TestAttributionDeterministic: observing a run must not change its timing,
// and two observed runs must attribute identically.
func TestAttributionDeterministic(t *testing.T) {
	sched := testSched(t)
	run := func(o obs.Options) *Result {
		sys, err := Build(Occamy, sched, Options{Seed: 7, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(40_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(obs.Options{})
	obs1 := run(obs.Options{Attribution: true})
	obs2 := run(obs.Options{Attribution: true})
	if plain.Cycles != obs1.Cycles {
		t.Fatalf("observing changed timing: %d vs %d cycles", plain.Cycles, obs1.Cycles)
	}
	for c := range obs1.Cores {
		if *obs1.Cores[c].Attribution != *obs2.Cores[c].Attribution {
			t.Fatalf("core %d: attribution not deterministic:\n%v\n%v",
				c, obs1.Cores[c].Attribution, obs2.Cores[c].Attribution)
		}
	}
	if plain.Cores[0].Attribution != nil {
		t.Fatal("unobserved run has attribution")
	}
}

// TestPerfettoExportFromSystem is the trace contract: one traced run writes
// one file that passes the format check and holds the cores' phase slices,
// the co-processor's drain slices and the sampler's telemetry.* window
// tracks, carries exactly one lane.* instant per lane-event log entry, and
// names each process once.
func TestPerfettoExportFromSystem(t *testing.T) {
	sched := testSched(t)
	sink := obs.NewPerfetto(0)
	sys, err := Build(Occamy, sched, Options{Seed: 7, Obs: obs.Options{Attribution: true, Sink: sink}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(40_000_000); err != nil {
		t.Fatal(err)
	}
	events := writeTrace(t, sys, sink)
	if sink.Dropped() > 0 {
		t.Fatalf("%d events dropped by cap; the contract checks below need them all", sink.Dropped())
	}
	var phases, drains, windows int
	names := map[int]int{}
	var lanes []string
	for _, e := range events {
		switch {
		case e.Ph == "X" && strings.HasPrefix(e.Name, "phase "):
			phases++
		case e.Ph == "X" && e.Name == "drain":
			drains++
		case e.Ph == "C" && strings.HasPrefix(e.Name, "telemetry."):
			windows++
		case e.Ph == "i" && strings.HasPrefix(e.Name, "lane."):
			lanes = append(lanes, fmt.Sprintf("%d/%d/%s", e.Ts, e.Pid, e.Name))
		case e.Ph == "M" && e.Name == "process_name":
			names[e.Pid]++
		}
	}
	if phases == 0 || drains == 0 || windows == 0 {
		t.Errorf("trace holds %d phase slices, %d drain slices, %d telemetry samples; want all > 0", phases, drains, windows)
	}
	var log []string
	for _, e := range sys.Cplx.LaneEvents() {
		log = append(log, fmt.Sprintf("%d/%d/lane.%s", e.Cycle, e.Core, e.Kind))
	}
	sort.Strings(lanes)
	sort.Strings(log)
	if len(log) == 0 || !reflect.DeepEqual(lanes, log) {
		t.Errorf("lane instants %v, want one per lane event %v", lanes, log)
	}
	// The cores' processes and the telemetry process, each named once.
	if len(names) != len(sys.Cores)+1 {
		t.Errorf("named pids = %v, want %d", names, len(sys.Cores)+1)
	}
	for pid, n := range names {
		if n != 1 {
			t.Errorf("pid %d named %d times", pid, n)
		}
	}
}

// writeTrace closes the run's final telemetry window, writes the trace,
// checks it against the format contract and returns its events.
func writeTrace(t *testing.T, sys *System, sink *obs.Perfetto) []obs.Event {
	t.Helper()
	sys.Tele.Flush(sys.Engine.Cycle())
	var buf bytes.Buffer
	if _, err := sink.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePerfetto(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("trace fails format contract: %v", err)
	}
	var events []obs.Event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestPerfettoTraceSkipLegacyIdentical: a traced run skips ahead like any
// other. On all four architectures, flat and on 2 clusters, the trace
// written under skip-ahead matches the LegacyTick trace event for event
// (bar the host-throughput track, which measures the host), the skip-ahead
// run elides cycles, and tracing leaves the Result as an untraced run's.
func TestPerfettoTraceSkipLegacyIdentical(t *testing.T) {
	pair := workload.MotivatingPair(workload.NewRegistry()).Scaled(0.1)
	for _, topo := range []*coproc.Topology{nil, {Clusters: 2}} {
		for _, kind := range Kinds {
			name := kind.String()
			if topo != nil {
				name += "/2-clusters"
			}
			t.Run(name, func(t *testing.T) {
				run := func(sink *obs.Perfetto, legacy bool) (*System, *Result) {
					t.Helper()
					sys, err := Build(kind, pair, Options{
						Seed: 11, Topology: topo, LegacyTick: legacy,
						Obs: obs.Options{Attribution: true, Sink: sink},
					})
					if err != nil {
						t.Fatal(err)
					}
					return sys, mustRun(t, sys)
				}
				skipSink, legSink := obs.NewPerfetto(0), obs.NewPerfetto(0)
				skipSys, skipRes := run(skipSink, false)
				legSys, _ := run(legSink, true)
				_, plainRes := run(nil, false)

				if n := skipSys.Engine.SkippedCycles(); n == 0 {
					t.Error("traced run skipped no cycles")
				}
				if !reflect.DeepEqual(skipRes, plainRes) {
					t.Errorf("tracing changed the result:\ntraced: %+v\nplain:  %+v", skipRes, plainRes)
				}
				skip := deterministicTrace(t, writeTrace(t, skipSys, skipSink))
				leg := deterministicTrace(t, writeTrace(t, legSys, legSink))
				if !bytes.Equal(skip, leg) {
					sl, ll := bytes.Split(skip, []byte("\n")), bytes.Split(leg, []byte("\n"))
					for i := 0; i < len(sl) && i < len(ll); i++ {
						if !bytes.Equal(sl[i], ll[i]) {
							t.Fatalf("traces diverge at event %d:\nskip:   %s\nlegacy: %s", i, sl[i], ll[i])
						}
					}
					t.Fatalf("trace lengths differ: skip %d events, legacy %d", len(sl), len(ll))
				}
			})
		}
	}
}

// deterministicTrace re-encodes a trace one event per line without the
// host-throughput samples, the one track that measures the host.
func deterministicTrace(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if e.Name == "telemetry.host_mcycles_per_s" {
			continue
		}
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
