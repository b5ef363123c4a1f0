package mapd

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testJob is the state a job file holds: no network, the rest as in the
// epoch the job would commit.
func testJob(id, parent uint64, step int) *Epoch {
	return &Epoch{
		EpochMeta:  EpochMeta{Number: parent + 1, Parent: parent, Job: id, VClock: time.Duration(1000 * step)},
		Checkpoint: []byte("checkpoint image " + string(rune('a'+step)) + "\n"),
	}
}

func openTestStore(t *testing.T, crash *crashHook) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.crash = crash
	return st
}

// TestWALRoundTrip: each step rewrites the job file whole, and recovery
// reads back exactly the newest step's state.
func TestWALRoundTrip(t *testing.T) {
	st := openTestStore(t, nil)
	for step := 0; step < 3; step++ {
		if err := st.writeJob(testJob(4, 3, step)); err != nil {
			t.Fatal(err)
		}
	}
	got := st.newestJob()
	if want := testJob(4, 3, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	if files := st.jobFiles(); len(files) != 1 || filepath.Base(files[0]) != "job-4.san" {
		t.Fatalf("job files %v, want just job-4.san", files)
	}
}

// TestWALLoadsNewestJob: with several leftover job files, recovery picks
// the highest job ID, and sweep removes the rest together with any temp
// file a crash left unrenamed.
func TestWALLoadsNewestJob(t *testing.T) {
	st := openTestStore(t, nil)
	for _, id := range []uint64{2, 10, 7} {
		if err := st.writeJob(testJob(id, 1, int(id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), "job-10.san.tmp"), []byte("torn"), 0o666); err != nil {
		t.Fatal(err)
	}
	if got := st.newestJob(); got == nil || got.Job != 10 {
		t.Fatalf("newestJob picked %+v, want job 10", got)
	}
	st.sweep(10)
	if files, _ := filepath.Glob(filepath.Join(st.Dir(), "*")); len(files) != 1 ||
		filepath.Base(files[0]) != "job-10.san" {
		t.Fatalf("after sweep(10): %v", files)
	}
	st.sweep(0)
	if got := st.newestJob(); got != nil {
		t.Fatalf("after sweep(0): recovered %+v", got)
	}
}

// TestWALCorruptJobFileReruns: a job file with a flipped byte fails its
// checksum and is ignored, both by newestJob and by a restarted daemon,
// whose job then reruns from its parent epoch to the uninterrupted run's
// epochs.
func TestWALCorruptJobFileReruns(t *testing.T) {
	st := openTestStore(t, nil)
	if err := st.writeJob(testJob(3, 1, 1)); err != nil {
		t.Fatal(err)
	}
	flipJobFile(t, st.jobFiles()[0])
	if got := st.newestJob(); got != nil {
		t.Fatalf("corrupt job file recovered as %+v", got)
	}

	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	// Durable writes: the map step, epoch 1, then the remap's first step.
	if code, out := runDaemon(t, append([]string{"-state", dir, "-crash-after", "3"}, chaosArgs...)...); code != crashExitCode {
		t.Fatalf("crash-after=3 exited %d:\n%s", code, out)
	}
	crashed, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := crashed.jobFiles()
	if job := crashed.newestJob(); len(files) != 1 || job == nil || job.Parent != 1 {
		t.Fatalf("want one remap job file after the crash, got %v", files)
	}
	flipJobFile(t, files[0])
	code, out := runDaemon(t, append([]string{"-state", dir}, chaosArgs...)...)
	if code != 0 {
		t.Fatalf("restart exited %d:\n%s", code, out)
	}
	if strings.Contains(out, "resuming") {
		t.Fatalf("restart resumed from a corrupt job file:\n%s", out)
	}
	requireSameEpochs(t, chaosReference(t), dir)
}

func flipJobFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestCrashHookFiresOnNthAppend: the -crash-after hook triggers exactly
// at the n-th durable write, counting job steps and epoch commits alike.
func TestCrashHookFiresOnNthAppend(t *testing.T) {
	fired := 0
	crash := &crashHook{after: 3, exit: func() { fired++ }}
	st := openTestStore(t, crash)
	for _, write := range []func() error{
		func() error { return st.writeJob(testJob(1, 0, 0)) },
		func() error { return st.writeJob(testJob(1, 0, 1)) },
		func() error { return st.Commit(testEpoch(1)) }, // the 3rd write
		func() error { return st.writeJob(testJob(2, 1, 0)) },
		func() error { return st.Commit(testEpoch(2)) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if want := crash.n >= 3; (fired == 1) != want {
			t.Fatalf("after write %d: hook fired %d times", crash.n, fired)
		}
	}
	if fired != 1 || crash.n != 5 {
		t.Fatalf("hook fired %d times over %d writes, want once over 5", fired, crash.n)
	}
	// A disabled hook (after=0) never fires.
	quiet := openTestStore(t, &crashHook{exit: func() { t.Error("disabled hook fired") }})
	if err := quiet.writeJob(testJob(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := quiet.Commit(testEpoch(1)); err != nil {
		t.Fatal(err)
	}
}

// TestWALRemoveDischarges: removeJob deletes the file so recovery finds
// nothing — the committed epoch has taken over the job's promise.
func TestWALRemoveDischarges(t *testing.T) {
	st := openTestStore(t, nil)
	if err := st.writeJob(testJob(6, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.removeJob(6); err != nil {
		t.Fatal(err)
	}
	if got := st.newestJob(); got != nil {
		t.Fatalf("recovered %+v after removeJob", got)
	}
	if files, _ := filepath.Glob(filepath.Join(st.Dir(), "*")); len(files) != 0 {
		t.Fatalf("files left behind: %v", files)
	}
}

// requireSameEpochs fails unless dir holds the reference run's epochs,
// networks and checkpoints byte for byte.
func requireSameEpochs(t *testing.T, ref *Store, dir string) *Store {
	t.Helper()
	got, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Epochs()) != len(got.Epochs()) {
		t.Fatalf("epoch counts differ: reference %d, got %d", len(ref.Epochs()), len(got.Epochs()))
	}
	for i, re := range ref.Epochs() {
		ge := got.Epochs()[i]
		if !bytes.Equal(re.NetText, ge.NetText) {
			t.Errorf("epoch %d: network differs from the uninterrupted run", re.Number)
		}
		if !bytes.Equal(re.Checkpoint, ge.Checkpoint) {
			t.Errorf("epoch %d: checkpoint differs from the uninterrupted run", re.Number)
		}
	}
	return got
}
