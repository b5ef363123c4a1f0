package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"sanmap/internal/faults"
)

// argsEnv carries a sanmap command line into a re-executed test binary,
// which then runs main instead of the tests.
const argsEnv = "SANMAP_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"sanmap"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCheckWindow: a window above 1 is accepted exactly where a probe
// window is opened, and a refusal names what does take one.
func TestCheckWindow(t *testing.T) {
	for _, c := range []struct {
		window int
		algo   string
		chaos  bool
		ok     bool
	}{
		{1, "berkeley", false, true},
		{1, "myricom", false, true},
		{1, "label", false, true},
		{1, "berkeley", true, true},
		{0, "myricom", true, true},
		{8, "berkeley", false, true},
		{8, "random", false, true},
		{8, "nonesuch", false, true}, // runAlgo's error to report, not this one's
		{8, "myricom", false, false},
		{8, "label", false, false},
		{2, "berkeley", true, false},
		{8, "myricom", true, false},
	} {
		err := checkWindow(c.window, c.algo, c.chaos)
		if (err == nil) != c.ok {
			t.Errorf("checkWindow(%d, %q, chaos=%v) = %v, want ok=%v", c.window, c.algo, c.chaos, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-algo berkeley and -algo random") {
			t.Errorf("checkWindow(%d, %q, chaos=%v): %q does not name what takes a window", c.window, c.algo, c.chaos, err)
		}
	}
}

// TestChaosProfileErrorOnce: a bad -chaos spec is reported with
// faults.ParseProfile's own text behind the command name, not as
// "chaos: chaos: ...".
func TestChaosProfileErrorOnce(t *testing.T) {
	for _, spec := range []string{"seed=1,cuts=-3", "seed=1,bogus=2", "seed"} {
		_, _, perr := faults.ParseProfile(spec)
		if perr == nil {
			t.Fatalf("ParseProfile(%q) accepted a bad spec", spec)
		}
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), argsEnv+"=-gen now-c -chaos "+spec)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Errorf("-chaos %s: %v, want exit status 1", spec, err)
		}
		if want := "sanmap: " + perr.Error() + "\n"; stderr.String() != want || stdout.Len() != 0 {
			t.Errorf("-chaos %s: stdout %q, stderr %q; want only %q", spec, stdout.String(), stderr.String(), want)
		}
	}
}
