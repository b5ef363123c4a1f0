package mapd

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the sanmapd re-exec helper: when SANMAPD_HELPER is
// set the test binary becomes a real daemon process (argument vector in
// the variable, unit-separated), which is how the kill/restart harness
// crashes and reboots sanmapd as an actual OS process rather than a
// goroutine.
func TestMain(m *testing.M) {
	if args := os.Getenv("SANMAPD_HELPER"); args != "" {
		os.Exit(Main(strings.Split(args, "\x1f"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// chaosArgs is the daemon run the crash harness replays: an initial map of
// now-c, then a heal after two scheduled cuts.
var chaosArgs = []string{"-gen", "now-c", "-seed", "1", "-chaos", "seed=5,cuts=2", "-once"}

// chaosReference returns the store of an uninterrupted chaosArgs run.
func chaosReference(t *testing.T) *Store {
	t.Helper()
	dir := t.TempDir()
	if code, out := runDaemon(t, append([]string{"-state", dir}, chaosArgs...)...); code != 0 {
		t.Fatalf("reference run exited %d:\n%s", code, out)
	}
	ref, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Epochs()) < 2 {
		t.Fatalf("reference run committed %d epoch(s), want a map and a heal", len(ref.Epochs()))
	}
	return ref
}

// runDaemon execs this test binary as a sanmapd process and returns its
// exit code and combined output.
func runDaemon(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SANMAPD_HELPER="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("exec daemon: %v\n%s", err, out)
	return -1, ""
}

// TestCrashRestartConvergesByteIdentical is the crash harness: kill
// sanmapd right after its 1st, 2nd, 3rd, ... durable write — every job
// step and every epoch commit, each point there is — restarting onto the
// same state directory each time, and require that the surviving
// committed epochs are byte-for-byte the same maps an uninterrupted daemon
// produces.
func TestCrashRestartConvergesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	ref := chaosReference(t)
	crashDir := t.TempDir()
	converged := false
	crashes := 0
	var lastOut string
	for n := 1; n <= 64; n++ {
		code, out := runDaemon(t, append([]string{
			"-state", crashDir, "-crash-after", fmt.Sprint(n)}, chaosArgs...)...)
		lastOut = out
		switch code {
		case crashExitCode:
			crashes++
		case 0:
			converged = true
		default:
			t.Fatalf("crash run n=%d exited %d:\n%s", n, code, out)
		}
		if converged {
			break
		}
	}
	if !converged {
		t.Fatalf("no convergence after 64 crash points:\n%s", lastOut)
	}
	if crashes == 0 {
		t.Fatal("crash hook never fired — harness tested nothing")
	}
	crash := requireSameEpochs(t, ref, crashDir)

	// Resumability must have been exercised and must pay: the final
	// epoch of the crash loop comes from a resumed job whose last process
	// segment spent fewer probes than the uninterrupted heal.
	refFinal, crashFinal := ref.Latest(), crash.Latest()
	if !crashFinal.Resumed {
		t.Error("final crash-looped epoch was not committed by a resumed job")
	}
	if refFinal.Probes <= 0 {
		t.Fatalf("reference heal spent %d probes — profile too weak", refFinal.Probes)
	}
	if crashFinal.Probes >= refFinal.Probes {
		t.Errorf("resumed remap spent %d probes, from-scratch spends %d — resume saved nothing",
			crashFinal.Probes, refFinal.Probes)
	}

	// No job file or temp file survives a committed convergence.
	if leftovers, _ := filepath.Glob(filepath.Join(crashDir, "[^e]*")); len(leftovers) != 0 {
		t.Errorf("files other than epochs after convergence: %v", leftovers)
	}
}

// TestCrashRestartAfterInitialMap stops the daemon once epoch 1 commits
// and restarts it under chaos: the heal runs in a process whose session
// is restored from epoch 1, and must commit the epoch 2 an uninterrupted
// run commits, observation timestamps included.
func TestCrashRestartAfterInitialMap(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	if code, out := runDaemon(t, "-state", dir, "-gen", "now-c", "-seed", "1", "-once"); code != 0 {
		t.Fatalf("initial map exited %d:\n%s", code, out)
	}
	if code, out := runDaemon(t, append([]string{"-state", dir}, chaosArgs...)...); code != 0 {
		t.Fatalf("chaos restart exited %d:\n%s", code, out)
	}
	requireSameEpochs(t, chaosReference(t), dir)
}

// TestCrashRestartInterruptedInitialMap crashes inside the very first
// map job (before any epoch exists) and checks the restart resumes it
// from its job file and still commits the identical epoch 1.
func TestCrashRestartInterruptedInitialMap(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	base := []string{"-gen", "now-c", "-seed", "1", "-once"}
	refDir := t.TempDir()
	if code, out := runDaemon(t, append([]string{"-state", refDir}, base...)...); code != 0 {
		t.Fatalf("reference run exited %d:\n%s", code, out)
	}

	dir := t.TempDir()
	if code, _ := runDaemon(t, append([]string{
		"-state", dir, "-crash-after", "1"}, base...)...); code != crashExitCode {
		t.Fatalf("crash-after=1 exited %d, want %d", code, crashExitCode)
	}
	code, out := runDaemon(t, append([]string{"-state", dir}, base...)...)
	if code != 0 {
		t.Fatalf("restart exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "resuming map job") {
		t.Fatalf("restart did not resume the interrupted map job:\n%s", out)
	}

	ref, err := OpenStore(refDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(ref.Latest().NetText) != string(got.Latest().NetText) {
		t.Error("recovered initial map differs from uninterrupted run")
	}
}
