package occamy

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"occamy/internal/coproc"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(Elastic)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"bad arch":        func(c *Config) { c.Arch = Arch(99) },
		"odd lanes":       func(c *Config) { c.LanesPerCore = 10 },
		"negative scale":  func(c *Config) { c.Scale = -1 },
		"negative period": func(c *Config) { c.MonitorPeriod = -2 },
		"bad fault spec":  func(c *Config) { c.Faults = "exebu:@" },
		"missing file":    func(c *Config) { c.Faults = "@/nonexistent/faults.json" },
		"zero clusters":   func(c *Config) { c.Topology = &Topology{} },
		"huge hop":        func(c *Config) { c.Topology = &Topology{Clusters: 1, HopLatency: coproc.MaxHopLatency + 1} },
	} {
		cfg := good
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
	// A hop latency that once ran a job into the watchdog is a typed error.
	cfg := good
	cfg.Topology = &Topology{Clusters: 1, HopLatency: math.MaxUint64}
	var terr *coproc.TopologyError
	if err := cfg.Validate(); !errors.As(err, &terr) || terr.Field != "HopLatency" {
		t.Errorf("HopLatency 2^64-1: Validate = %v, want a *coproc.TopologyError on HopLatency", err)
	}
	cfg.Topology.HopLatency = coproc.MaxHopLatency
	if err := cfg.Validate(); err != nil {
		t.Errorf("HopLatency at the bound rejected: %v", err)
	}
}

func TestRunWithFaultSpec(t *testing.T) {
	cfg := quickCfg(Elastic)
	cfg.Faults = "exebu:1@1000"
	cfg.StallCycles = 300_000
	rep, err := Run(cfg, MotivatingPair())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recoveries) != 1 {
		t.Fatalf("recoveries = %+v, want one", rep.Recoveries)
	}
	if rep.Elems == 0 {
		t.Error("report carries no element count")
	}
	if s := rep.Summary(); !strings.Contains(s, "fault exebu@1000") {
		t.Errorf("summary does not mention the fault:\n%s", s)
	}
}

func TestRunWithFaultJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	spec := `[{"kind": "exebu", "count": 1, "at": 1000, "for": 4000}]`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(Elastic)
	cfg.Faults = "@" + path
	cfg.StallCycles = 300_000
	rep, err := Run(cfg, MotivatingPair())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recoveries) != 1 {
		t.Fatalf("recoveries = %+v, want one", rep.Recoveries)
	}
}

// TestRunDiagnosticError: killing every ExeBU wedges any architecture; the
// watchdog must surface a DiagnosticError whose dump names the stall.
func TestRunDiagnosticError(t *testing.T) {
	cfg := quickCfg(Private)
	cfg.Faults = "exebu:8@1000"
	cfg.StallCycles = 100_000
	_, err := Run(cfg, MotivatingPair())
	if err == nil {
		t.Fatal("expected a watchdog abort")
	}
	var derr *DiagnosticError
	if !errors.As(err, &derr) {
		t.Fatalf("error is not a DiagnosticError: %v", err)
	}
	if derr.Dump == nil || !strings.Contains(derr.Dump.String(), "diagnostic dump") {
		t.Fatalf("missing or malformed dump: %+v", derr.Dump)
	}
}
