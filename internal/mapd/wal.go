package mapd

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The daemon's write-ahead state is one job file per in-flight map or
// remap job, job-<id>.san: the epoch the job would commit if it stopped at
// its newest step boundary — parent, job ID, the step's virtual clock and
// the full session checkpoint, but no network — in the epoch file format,
// so parseEpoch reads both. The step hook rewrites it at every boundary
// through Store.write, and commit removes it once the epoch is durable, so
// a job file on disk always means "job in flight or dead".
//
// A job that dies before its first step leaves no file, and loses nothing
// by it: its parent is the latest epoch, its ID is NextJobID and its start
// clock is the parent's VClock, so the rerun is the same job.

// crashHook implements -crash-after n: the n-th durable write in this
// process (a job step or an epoch commit) kills it, after the bytes and
// the rename hit the disk — modelling a daemon that dies at the worst
// moment but never loses acknowledged writes.
type crashHook struct {
	after int
	n     int
	exit  func() // os.Exit(crashExitCode) in production, overridable in tests
}

// crashExitCode distinguishes an injected crash from real failures.
const crashExitCode = 7

func (c *crashHook) note() {
	if c == nil || c.after <= 0 {
		return
	}
	c.n++
	if c.n == c.after {
		c.exit()
	}
}

func jobName(id uint64) string { return fmt.Sprintf("job-%d.san", id) }

// writeJob durably replaces the job file of ep.Job with ep, the job's
// newest resumable state.
func (st *Store) writeJob(ep *Epoch) error {
	return st.write(jobName(ep.Job), encodeEpoch(ep))
}

// removeJob discharges a job: its epoch has committed, or it was fenced.
func (st *Store) removeJob(id uint64) error {
	return os.Remove(filepath.Join(st.dir, jobName(id)))
}

// jobFiles lists the job files in the store, ascending by job ID.
func (st *Store) jobFiles() []string {
	paths, _ := filepath.Glob(filepath.Join(st.dir, "job-*.san"))
	sort.Slice(paths, func(i, j int) bool {
		return fileNumber(paths[i], "job-") < fileNumber(paths[j], "job-")
	})
	return paths
}

// newestJob returns the job file with the highest ID, or nil when there
// is none or it fails its checksum: a job whose file is bad reruns from
// its parent epoch.
func (st *Store) newestJob() *Epoch {
	paths := st.jobFiles()
	if len(paths) == 0 {
		return nil
	}
	data, err := os.ReadFile(paths[len(paths)-1])
	if err != nil {
		return nil
	}
	ep, err := parseEpoch(data)
	if err != nil {
		return nil
	}
	return ep
}

// sweep removes what a crash can leave behind: unrenamed *.tmp files and
// every job file except keep's (0 keeps none).
func (st *Store) sweep(keep uint64) {
	tmps, _ := filepath.Glob(filepath.Join(st.dir, "*.tmp"))
	for _, p := range tmps {
		os.Remove(p)
	}
	for _, p := range st.jobFiles() {
		if fileNumber(p, "job-") != keep {
			os.Remove(p)
		}
	}
}
