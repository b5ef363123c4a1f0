package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func schedAffinity(trap uintptr, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// pinned runs f on an OS thread confined to one CPU (the highest the process
// may use); a child process f starts inherits the confinement.
//
// serve-steady needs it. Its daemon and its one client run a closed loop, so
// only one of them is runnable at a time. Left to the scheduler the pair
// flips between sharing a CPU (11.5 µs round trips on the reference box) and
// straddling two (43 µs: an inter-processor interrupt and an idle exit per
// hop), and a run's median lands wherever the mix fell, 19 to 27 µs. Either
// placement alone repeats within 2 %. Sharing one CPU is the placement that
// measures the read path's own cost, so that is the one the workload fixes.
// Where the affinity calls are not permitted f runs unpinned.
//
// Sharing a CPU brought a second source of scatter: the daemon's first reply
// wakes the client, the scheduler may let it run at once, and it reads one
// reply and sleeps again, so a batch of 64 replies (serve.go) costs anything
// from 2 to 128 context switches, 4 in 10 batches taking two to four times as
// long as the rest, more of them the busier the host. A batch client
// (batchPolicy) never takes the CPU from the task that woke it and so reads a
// batch's replies when the daemon has written them all: over six interleaved
// pairs of runs that took the queries answered per second from 130–140
// thousand to 177–195 thousand and a segment's 99th-percentile batch from 1.45
// to 1.2 ms.
func pinned(f func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var allowed, one cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &allowed); err != nil {
		return f()
	}
	for cpu := len(allowed)*64 - 1; cpu >= 0; cpu-- {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			one[cpu/64] = 1 << (cpu % 64)
			break
		}
	}
	if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return f()
	}
	defer schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &allowed)
	return f()
}

const schedBatch = 3 // SCHED_BATCH of sched(7)

// batchPolicy puts the calling thread, which pinned has locked, under the
// batch scheduling policy, where a task that wakes never preempts the task
// that woke it, and returns the call that puts it back. Where the policy is
// refused both do nothing.
func batchPolicy() (restore func()) {
	var param struct{ priority int32 } // 0 is the only priority of either policy
	set := func(policy uintptr) syscall.Errno {
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, policy, uintptr(unsafe.Pointer(&param)))
		return e
	}
	if set(schedBatch) != 0 {
		return func() {}
	}
	return func() { set(0) }
}
