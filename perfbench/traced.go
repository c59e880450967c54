package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// traceDir receives the traced run's span and profile files, relative to the
// checkout root run.py starts the benchmark in.
const traceDir = ".bench_build/traces"

// selfLayers are the modules whose profile self time the traced run reports
// as <module>.self_s. Samples whose leaf lies anywhere else count as
// unattributed.
var selfLayers = []string{
	"arch", "coproc", "cpu", "mem", "sim", "lanemgr", "compiler", "workload", "isa",
	"osched", "traffic", "fault", "serve", "obs", "telemetry", "runtime",
}

// tracedRun alternates untraced passes over the job list with traced ones
// (spans and a CPU profile) for about d, and until both have enough samples
// per job kind. The per-layer metrics come from the traced passes (the serve
// latencies from the untraced ones, so tracing does not inflate them); the
// ratio of the two rates is the tracing overhead, and alternating keeps the
// host's drift out of it.
func tracedRun(def workloadDef, drv runner, pr *prober, outs *outcomes, d time.Duration, seed uint64, res *result) ([]*phase, error) {
	plain := newPhase(nil, outs)
	tr := newTracer()
	ph := newPhase(tr, outs)
	var profiles [][]byte
	var samples []sample
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i := 0; ; i++ {
		// Stop at the pass boundary nearest to d, once untraced and traced
		// passes have each run and collected enough samples.
		if el := time.Since(start); i >= 2 && el+el/time.Duration(2*i) >= d && plain.enough() && ph.enough() {
			break
		}
		if i%2 == 0 {
			runPhase(drv, plain, pr, 0, false)
			continue
		}
		var prof bytes.Buffer
		runtime.ReadMemStats(&m0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		runPhase(drv, ph, pr, 0, false)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&m1)
		ph.c.gcCycles += uint64(m1.NumGC - m0.NumGC)
		ph.c.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		s, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
		profiles = append(profiles, prof.Bytes())
	}
	printPhase(def.name, "untraced", plain)
	printPhase(def.name, "traced", ph)
	if err := drv.replay(ph); err != nil {
		ph.fail("replay", err)
	}

	f := foldProfile(samples)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", def.name, seed))
	for i, p := range profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", base, i), p, 0o644); err != nil {
			return nil, err
		}
	}
	if err := tr.write(base+".spans.json", "perfbench "+def.name); err != nil {
		ph.fail("span file", err)
	}

	m := res.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	attributed := 0.0
	for _, l := range selfLayers {
		put(l+".self_s", f.self[l], "s")
		attributed += f.self[l]
	}
	put("profile.unattributed_frac", math.Max(0, frac(f.total-attributed, f.total)), "frac")
	put("trace.overhead_frac", frac(plain.mcyclesPerSec(), ph.mcyclesPerSec())-1, "frac")
	put("host.contention", pr.contention(), "ratio")
	for _, name := range []string{"arch.restore_s", "arch.digest_s", "arch.check_s"} {
		put(name, f.incl[name], "s")
	}
	put("arch.build_ms", tr.meanMS("arch.Build"), "ms")
	put("arch.verify_ms", tr.meanMS("arch.System.CheckResults"), "ms")

	c := ph.c
	_, runs := tr.total("arch.System.Run")
	_, replays := tr.total("traffic.Scenario.Run")
	put("sim.run_ns_per_cycle", frac(float64((runs+replays).Nanoseconds()), float64(c.runCycles)), "ns/cycle")
	put("sim.skipped_frac", frac(float64(c.skipped), float64(ph.cycles)), "frac")
	put("coproc.migrations", float64(c.migrations), "count")
	put("coproc.fabric_refusals", float64(c.refusals), "count")
	put("lanemgr.repartitions", float64(c.repartitions), "count")
	put("lanemgr.reconfigures", float64(c.reconfigures), "count")
	put("traffic.arrivals", float64(c.arrivals), "count")
	put("traffic.completed", float64(c.completed), "count")
	put("traffic.canceled", float64(c.canceled), "count")
	// The server's own counts cover its whole life, so these count the
	// untraced passes too.
	put("serve.rejected", float64(plain.c.rejected+c.rejected), "count")
	put("serve.failed", float64(plain.c.servFailed+c.servFailed), "count")
	put("serve.warm_repeat_frac", frac(float64(plain.c.warmRepeats+c.warmRepeats), float64(plain.c.campaigns+c.campaigns)), "frac")
	if sd, ok := drv.(*serveRunner); ok {
		st := sd.srv.Stats()
		put("serve.cache_hit_frac", frac(float64(st.CacheHits()), float64(st.CacheHits()+st.CacheMissed())), "frac")
		put("serve.retries", float64(st.Retries()), "count")
	} else {
		put("serve.cache_hit_frac", 0, "frac")
		put("serve.retries", 0, "count")
	}
	tails := kindTails(plain.lat)
	for _, kind := range []string{"campaign", "traffic"} {
		t := tails[kind]
		if t.err != nil {
			plain.fail(kind+" latency", t.err)
		}
		put("serve."+kind+"_p50_ms", t.p50, "ms")
		put("serve."+kind+"_p90_ms", t.p90, "ms")
	}
	put("runtime.gc_cycles", float64(c.gcCycles), "count")
	put("runtime.alloc_mb", float64(c.allocBytes)/(1<<20), "MB")

	printLayers(def.name, f, res, base)
	return []*phase{plain, ph}, nil
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printLayers prints the traced run's table: every module with samples,
// largest first, then the unattributed share and the tracing overhead.
func printLayers(name string, f profileFold, res *result, base string) {
	fmt.Printf("\n%s traced run: host CPU by layer (profile self time, leaf frame)\n", name)
	type row struct {
		layer string
		sec   float64
	}
	var rows []row
	for l, s := range f.self {
		rows = append(rows, row{l, s})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sec > rows[j].sec })
	for _, r := range rows {
		fmt.Printf("  %-12s %8.3f s  %5.1f%%\n", r.layer, r.sec, 100*frac(r.sec, f.total))
	}
	m := res.Metrics
	fmt.Printf("  %-12s %8.3f s  %5.1f%%\n", "unattributed", m["profile.unattributed_frac"].Value*f.total,
		100*m["profile.unattributed_frac"].Value)
	for _, n := range []string{"arch.restore_s", "arch.digest_s", "arch.check_s"} {
		fmt.Printf("  inclusive %-22s %8.3f s  %5.1f%%\n", n, m[n].Value, 100*frac(m[n].Value, f.total))
	}
	fmt.Printf("  tracing overhead %.1f%% (untraced vs traced simulation rate)\n", 100*m["trace.overhead_frac"].Value)
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Printf("  spans: %s.spans.json  profiles: %s.cpu*.pprof (one per traced pass)\n", base, base)
}
