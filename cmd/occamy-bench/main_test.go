package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this command in a child process: with
// OCCAMY_BENCH_MAIN set, the test binary is occamy-bench.
func TestMain(m *testing.M) {
	if os.Getenv("OCCAMY_BENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bench runs occamy-bench with args and returns its stdout, stderr and exit
// code.
func bench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OCCAMY_BENCH_MAIN=1")
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

// TestUnknownExperimentExits2: a value -exp does not name, such as a typo,
// is a usage error that runs nothing; the names match case-insensitively.
func TestUnknownExperimentExits2(t *testing.T) {
	for _, exp := range []string{"nope", "fig1O", ""} {
		stdout, stderr, code := bench(t, "-exp", exp)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-exp") || !strings.Contains(stderr, "fig10") {
			t.Errorf("-exp %q: exit %d, stdout %q, stderr %q; want exit 2 listing the experiments", exp, code, stdout, stderr)
		}
	}
	stdout, stderr, code := bench(t, "-exp", "Table4")
	if code != 0 || !strings.Contains(stdout, "Table 4") {
		t.Errorf("-exp Table4: exit %d, stderr %q; want the Table 4 section", code, stderr)
	}
}
