package main

import "time"

// The sandboxes this benchmark runs in are small shared VMs whose speed
// drifts by tens of percent over minutes: the same sanload run takes 1.0 s in
// one minute and 1.8 s in another, and a fixed pure-CPU loop slows by the
// same factor at the same time. Raw wall-clock medians of runs made minutes
// apart therefore differ by more than any useful regression bound. So the
// harness times a fixed calibration kernel at quiet points beside the work,
// and expresses every time it reports in milliseconds at reference speed:
// raw time × hostSpeed, where hostSpeed = calibNominal / (kernel's time
// now). host_speed itself is printed with every run, so the raw readings
// stay recoverable. README.md has the measurements behind this.

const (
	// calibIters sizes the kernel to about 2 ms on the reference box.
	calibIters = 1 << 20
	// calibNominal is the kernel's time at reference speed 1.0. The value
	// only fixes the unit; comparisons between commits need it constant.
	calibNominal = 2 * time.Millisecond
	// calibMaxAge is how long a reading stays fresh: the drift it tracks is
	// slower than this.
	calibMaxAge = 200 * time.Millisecond
)

var calibBuf [1 << 15]uint64 // 256 KiB: cache-resident, like most of the simulator's state

// calibKernel is a xorshift walk with scattered read-modify-writes.
func calibKernel() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibBuf[x&(uint64(len(calibBuf))-1)] += x
	}
	return x
}

// speedometer reads the host's momentary speed. Call it only at quiet
// points, when no child or other goroutine of the workload is running: it
// measures the machine, not contention with the work.
type speedometer struct {
	at    time.Time
	speed float64
	sink  uint64
	all   []float64
}

// read returns calibNominal over the median of three timings of the kernel.
// The median, not the fastest: interruptions too short to see between
// repetitions slow the work as well, and a reading should carry its share of
// them; one long stall in three is still voted out.
func (s *speedometer) read() float64 {
	if !s.at.IsZero() && time.Since(s.at) < calibMaxAge {
		return s.speed
	}
	var took [3]float64
	for i := range took {
		start := time.Now()
		s.sink += calibKernel()
		took[i] = float64(time.Since(start))
	}
	s.speed = float64(calibNominal) / medianOf(took[:])
	s.at = time.Now()
	s.all = append(s.all, s.speed)
	return s.speed
}

// around runs f between two readings and returns their mean: the speed that
// applies to what f measured.
func (s *speedometer) around(f func() error) (float64, error) {
	before := s.read()
	err := f()
	s.at = time.Time{} // f took time: read again
	return (before + s.read()) / 2, err
}
