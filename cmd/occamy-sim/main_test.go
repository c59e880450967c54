package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"occamy"
)

// TestMain lets a test run this command in a child process: with
// OCCAMY_SIM_MAIN set, the test binary is occamy-sim.
func TestMain(m *testing.M) {
	if os.Getenv("OCCAMY_SIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sim runs occamy-sim with args and returns its stdout, stderr and exit code.
func sim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OCCAMY_SIM_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestPerfettoPath pins the per-architecture trace names of -arch all.
func TestPerfettoPath(t *testing.T) {
	for _, tc := range []struct {
		base  string
		kind  occamy.Arch
		multi bool
		want  string
	}{
		{"out.json", occamy.Elastic, false, "out.json"},
		{"", occamy.Elastic, true, ""},
		{"out.json", occamy.Private, true, "out-Private.json"},
		{"out.json", occamy.Temporal, true, "out-FTS.json"},
		{"out.json", occamy.StaticSpatial, true, "out-VLS.json"},
		{"out.json", occamy.Elastic, true, "out-Occamy.json"},
		{"runs/trace", occamy.Elastic, true, "runs/trace-Occamy"},
		{"runs.v2/trace", occamy.Elastic, true, "runs.v2/trace-Occamy"},
	} {
		if got := perfettoPath(tc.base, tc.kind, tc.multi); got != tc.want {
			t.Errorf("perfettoPath(%q, %s, %v) = %q, want %q", tc.base, tc.kind, tc.multi, got, tc.want)
		}
	}
}

// TestUnwritableOutputFailsBeforeSimulating holds -html and -perfetto to
// failing before the first simulated cycle. A one-cycle watchdog makes any
// run that starts fail within a few dozen cycles, so the command must exit
// 1 on the path's error, not on the watchdog's.
func TestUnwritableOutputFailsBeforeSimulating(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, flag := range []string{"-html", "-perfetto"} {
		stdout, stderr, code := sim(t, "-arch", "all", "-scale", "0.1", "-stall-cycles", "1",
			flag, filepath.Join(missing, "out.json"))
		if code != 1 || stdout != "" || !strings.Contains(stderr, missing) || strings.Contains(stderr, "forward progress") {
			t.Errorf("%s into a missing directory: exit %d, stdout %q, stderr %q; want exit 1 on the path's error",
				flag, code, stdout, stderr)
		}
	}
}

// TestHTMLRejectsTraffic pins that -html, which renders co-scheduled runs,
// is refused with -traffic before any file is created.
func TestHTMLRejectsTraffic(t *testing.T) {
	page := filepath.Join(t.TempDir(), "page.html")
	_, stderr, code := sim(t, "-traffic", "poisson:load=2", "-html", page)
	if code != 2 || !strings.Contains(stderr, "-traffic") {
		t.Errorf("exit %d, stderr %q; want exit 2 naming -traffic", code, stderr)
	}
	if _, err := os.Stat(page); !os.IsNotExist(err) {
		t.Errorf("the refused page was created (stat: %v)", err)
	}
}

// TestUnknownWorkloadExits2: an unknown workload name is a usage error that
// names the flag and points to -list, not a panic.
func TestUnknownWorkloadExits2(t *testing.T) {
	for _, flag := range []string{"-w0", "-w1"} {
		_, stderr, code := sim(t, "-scale", "0.1", flag, "spec/WL99")
		if code != 2 || !strings.Contains(stderr, flag+": ") || !strings.Contains(stderr, `"spec/WL99"`) ||
			!strings.Contains(stderr, "-list") || strings.Contains(stderr, "panic") {
			t.Errorf("%s spec/WL99: exit %d, stderr %q; want exit 2 naming the flag and -list", flag, code, stderr)
		}
	}
}
