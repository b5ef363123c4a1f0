package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv carries a sanexp command line into a re-executed test binary,
// which then runs main instead of the tests.
const argsEnv = "SANEXP_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"sanexp"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sanexp runs main in a child process and returns its exit code, stdout
// and stderr.
func sanexp(t *testing.T, args string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	if err != nil {
		t.Fatalf("sanexp %s: %v", args, err)
	}
	return 0, stdout.String(), stderr.String()
}

// TestRunsBelowOneRefused: -runs 0 used to print all-zero Fig 7 rows and a
// NaN speedup, and -runs -1 panicked building the chaos seed list. Both are
// refused before anything runs: one stderr line naming the flag, exit 2.
func TestRunsBelowOneRefused(t *testing.T) {
	for _, args := range []string{"-fig 7 -runs 0", "-fig chaos -runs -1", "-fig 3 -runs 0"} {
		code, stdout, stderr := sanexp(t, args)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "-runs") {
			t.Errorf("sanexp %s: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line naming -runs",
				args, code, stdout, stderr)
		}
	}
	if code, stdout, stderr := sanexp(t, "-fig 3 -runs 1"); code != 0 || !strings.Contains(stdout, "Fig 3") {
		t.Errorf("sanexp -fig 3 -runs 1: exit %d, stderr %q; want the Fig 3 table", code, stderr)
	}
}
