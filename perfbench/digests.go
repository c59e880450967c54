package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"occamy/internal/serve"
)

// Simulated timing does not depend on data values, and the outcome digest
// folds jobs in id order, not in the seeded run order: the fig10 and scale64
// digests are the same for every seed.
var workloadDigest = map[string]uint64{
	"fig10":   0x968cf5573d973ea2,
	"scale64": 0x2a98c0e7454e8e7a,
}

// serveDigest holds the serve digest of the seeds the benchmark ships:
// defaultSeed, used while tuning, and heldOutSeed, kept out of it. The serve
// digest follows the drawn job mix, so other seeds are checked job by job
// against serveOutcomes instead.
var serveDigest = map[uint64]uint64{
	defaultSeed: 0x896eb69205adbc21,
	heldOutSeed: 0xdbd91c1b15575db5,
}

// serveOutcomesJSON maps every campaign point and traffic spec a serve job
// can draw (pointKey, trafficKey) to its outcome word in hex. Regenerate it
// with `go run . --record-serve outcomes.json` in this directory.
//
//go:embed outcomes.json
var serveOutcomesJSON []byte

var serveOutcomes = sync.OnceValues(func() (map[string]uint64, error) {
	var hex map[string]string
	if err := json.Unmarshal(serveOutcomesJSON, &hex); err != nil {
		return nil, fmt.Errorf("outcomes.json: %w", err)
	}
	out := make(map[string]uint64, len(hex))
	for k, v := range hex {
		w, err := strconv.ParseUint(v, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("outcomes.json %q: %w", k, err)
		}
		out[k] = w
	}
	return out, nil
})

// pointKey names one campaign point: everything its outcome depends on but
// the data seed.
func pointKey(spec serve.JobSpec, faults string) string {
	return fmt.Sprintf("campaign %s %s warmup=%d fault=%q", spec.Arch, strings.Join(spec.Workloads, "+"), spec.WarmupCycles, faults)
}

// trafficKey names one traffic job the same way.
func trafficKey(spec serve.JobSpec) string {
	return fmt.Sprintf("traffic %s %s", spec.Arch, spec.Traffic)
}

// pointWord is one campaign point's outcome: cycles, elements, recoveries.
func pointWord(p serve.CampaignPoint) uint64 {
	return fold(p.Cycles, p.Elems, uint64(p.Recoveries))
}

// trafficWord is one traffic job's outcome: arrivals, completed, canceled
// and the report digest.
func trafficWord(arrivals, completed, canceled int, digest uint64) uint64 {
	return fold(uint64(arrivals), uint64(completed), uint64(canceled), digest)
}

// checkRecorded compares an outcome word with the recorded one.
func checkRecorded(key string, got uint64) error {
	table, err := serveOutcomes()
	if err != nil {
		return err
	}
	want, ok := table[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no recorded outcome", key)
	case want != got:
		return fmt.Errorf("%s: outcome %016x, recorded %016x", key, got, want)
	}
	return nil
}

// expectedServeDigest folds the outcomes table records for a serve job list,
// the digest a correct run of it reproduces.
func expectedServeDigest(jobs []serveJob, table map[string]uint64) (uint64, error) {
	words := make([]uint64, len(jobs))
	for i, j := range jobs {
		var keys []string
		if j.spec.Kind == "campaign" {
			for _, fs := range j.spec.Faults {
				keys = append(keys, pointKey(j.spec, fs))
			}
		} else {
			keys = append(keys, trafficKey(j.spec))
		}
		var pts []uint64
		for _, k := range keys {
			w, ok := table[k]
			if !ok {
				return 0, fmt.Errorf("%s: no recorded outcome", k)
			}
			pts = append(pts, w)
		}
		if j.spec.Kind == "campaign" {
			words[i] = fold(pts...)
		} else {
			words[i] = pts[0]
		}
	}
	return fold(words...), nil
}

// recordServe runs every campaign point and traffic spec a serve job can
// draw through a fresh server and writes their outcome words to path as
// outcomes.json, then prints the shipped seeds' serve digests for
// serveDigest.
func recordServe(path string) error {
	srv, err := serve.New(serve.Options{Workers: 1})
	if err != nil {
		return err
	}
	defer srv.Drain()
	run := func(spec serve.JobSpec) (json.RawMessage, error) {
		spec.Tenant = "record"
		job, _, err := srv.Submit(spec)
		if err != nil {
			return nil, err
		}
		<-job.Done()
		if st := job.Status(); st != serve.StateDone {
			return nil, fmt.Errorf("%s: %s", st, job.View().Error)
		}
		return job.Result(), nil
	}
	_, data := seeded(defaultSeed)
	table := map[string]uint64{}
	for _, pair := range campaignPairs {
		for _, a := range serveArchs {
			spec := serve.JobSpec{Kind: "campaign", Arch: a, Workloads: pair, Seed: data, Verify: true,
				WarmupCycles: campaignWarmup, Faults: append([]string{""}, faultMenu()...)}
			doc, err := run(spec)
			if err != nil {
				return err
			}
			var r serve.CampaignResult
			if err := json.Unmarshal(doc, &r); err != nil {
				return err
			}
			for _, p := range r.Points {
				table[pointKey(spec, p.Faults)] = pointWord(p)
			}
		}
	}
	for _, a := range serveArchs {
		for _, proc := range trafficProcs {
			for _, load := range trafficLoads {
				for seed := 1; seed <= trafficSeeds; seed++ {
					spec := serve.JobSpec{Kind: "traffic", Arch: a, Seed: data, Verify: true, Traffic: trafficSpec(proc, load, seed)}
					doc, err := run(spec)
					if err != nil {
						return err
					}
					var r serve.TrafficResult
					if err := json.Unmarshal(doc, &r); err != nil {
						return err
					}
					dg, err := strconv.ParseUint(r.Digest, 16, 64)
					if err != nil {
						return err
					}
					table[trafficKey(spec)] = trafficWord(r.Arrivals, r.Completed, r.Canceled, dg)
				}
			}
		}
	}
	hex := map[string]string{}
	for k, w := range table {
		hex[k] = fmt.Sprintf("%016x", w)
	}
	doc, err := json.MarshalIndent(hex, "", "  ") // keys sorted
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	for _, seed := range []uint64{defaultSeed, heldOutSeed} {
		jobs, err := serveJobs(seed)
		if err != nil {
			return err
		}
		d, err := expectedServeDigest(jobs, table)
		if err != nil {
			return err
		}
		fmt.Printf("serve seed %d digest %#016x\n", seed, d)
	}
	return nil
}
