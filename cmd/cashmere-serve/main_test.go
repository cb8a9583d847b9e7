package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainEnv makes the test binary run main instead of the tests, so a test
// can drive the command line end to end and observe its exit status.
const mainEnv = "CASHMERE_SERVE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs main with args in a child process and returns its stderr and
// exit status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stderr.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stderr.String(), 0
}

// TestBadFlags checks that out-of-range flags are usage errors (exit status
// 2) instead of an empty run or a silent fallback to auto.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-load", "-1"}, "cashmere-serve: -load must be a positive fraction of capacity, got -1\n"},
		{[]string{"-partitions", "-2"}, "cashmere-serve: -partitions must be 0 (auto) or positive, got -2\n"},
	} {
		stderr, code := runMain(t, tc.args...)
		if code != 2 || stderr != tc.want {
			t.Errorf("%v: exit %d, stderr %q; want exit 2, stderr %q", tc.args, code, stderr, tc.want)
		}
	}
}
