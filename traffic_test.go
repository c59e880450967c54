package occamy

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"occamy/internal/obs"
)

func TestConfigValidateTrafficSpec(t *testing.T) {
	good := DefaultConfig(Elastic)
	good.Traffic = "poisson:load=2,tenants=3"
	if err := good.Validate(); err != nil {
		t.Fatalf("valid traffic spec rejected: %v", err)
	}
	for name, spec := range map[string]string{
		"unknown process": "laplace:load=2",
		"bad key":         "poisson:frobnicate=3",
		"bad value":       "poisson:load=banana",
		"zero tenants":    "poisson:tenants=0",
		"zero cores":      "poisson:cores=0",
		"bad churn":       "poisson:churn=5000",
		"stray field":     "poisson:load=2,=7",
	} {
		cfg := good
		cfg.Traffic = spec
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted Traffic=%q", name, spec)
		}
	}
}

func TestRunTrafficRequiresSpec(t *testing.T) {
	if _, err := RunTraffic(DefaultConfig(Elastic)); err == nil {
		t.Fatal("RunTraffic accepted an empty Config.Traffic")
	}
}

func TestRunTrafficSmoke(t *testing.T) {
	cfg := DefaultConfig(Elastic)
	cfg.MaxCycles = 0 // horizon-sized budget
	cfg.Traffic = "poisson:load=2,tenants=3,cores=2,horizon=10000,slice=400,elems=384,repeats=1,churn=900:1300"
	untraced, err := RunTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PerfettoPath = filepath.Join(t.TempDir(), "run.json")
	rep, err := RunTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Digest != untraced.Digest {
		t.Errorf("tracing changed the report digest: %#x, untraced %#x", rep.Digest, untraced.Digest)
	}
	trace, err := os.ReadFile(cfg.PerfettoPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePerfetto(bytes.NewReader(trace)); err != nil {
		t.Fatalf("traffic trace fails the format contract: %v", err)
	}
	if !bytes.Contains(trace, []byte(`"telemetry.occupancy"`)) {
		t.Error("traffic trace holds no telemetry window tracks")
	}
	if rep.Total.Arrivals == 0 || rep.Total.Completed == 0 {
		t.Fatalf("empty run: %d arrivals, %d completed", rep.Total.Arrivals, rep.Total.Completed)
	}
	if len(rep.Tenants) == 0 {
		t.Fatal("report carries no tenants")
	}
	s := rep.Summary()
	for _, want := range []string{"tenant", "admit p99", "SLO@"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestRunTrafficClustered: on a clustered machine the OS scheduler saves and
// restores each core's context on the core's home cluster, so every task a
// traffic run completes verifies against the host reference, with and
// without churn, at 2 and 4 clusters on all four architectures.
func TestRunTrafficClustered(t *testing.T) {
	const spec = "poisson:load=2,tenants=4,cores=4,horizon=12000,slice=400,elems=384,repeats=1"
	for _, clusters := range []int{2, 4} {
		for _, traffic := range []string{spec, spec + ",churn=900:1300"} {
			for _, a := range Architectures() {
				cfg := DefaultConfig(a)
				cfg.MaxCycles = 0 // horizon-sized budget
				cfg.Verify = true
				cfg.Traffic = traffic
				cfg.Topology = &Topology{Clusters: clusters}
				rep, err := RunTraffic(cfg)
				if err != nil {
					t.Fatalf("%s, %d clusters, %q: %v", a, clusters, traffic, err)
				}
				if rep.Total.Completed == 0 {
					t.Fatalf("%s, %d clusters, %q: no task completed", a, clusters, traffic)
				}
			}
		}
	}
}
