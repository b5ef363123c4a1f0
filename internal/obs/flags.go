package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags is the telemetry flag surface shared by the sanmap, sanexp,
// sanload and sanmapd commands: every figure or mapping run can emit its
// trace and metrics sidecars plus wall-clock pprof profiles with the same
// four flags. Zero-valued paths disable the corresponding sink; Tracer and
// Metrics stay nil then, which the instrumentation layers treat as "off".
type Flags struct {
	TracePath   string
	MetricsPath string
	CPUProfile  string
	MemProfile  string

	// Tracer and Metrics are allocated by Begin when the matching path
	// flag was given; pass them to the instrumented subsystems.
	Tracer  *Tracer
	Metrics *Registry

	cpuFile *os.File
}

// AddFlags registers -trace, -metrics, -cpuprofile and -memprofile on fs
// and returns the struct their values land in. Call Begin after
// fs.Parse and Finish once the run completes.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TracePath, "trace", "", "write a Chrome trace_event JSON sidecar to this file (chrome://tracing, Perfetto)")
	fs.StringVar(&f.MetricsPath, "metrics", "", "write the metrics registry as text to this file")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	return f
}

// Begin allocates the tracer and registry for the requested sidecars and
// starts CPU profiling. The profiles are the one place wall time enters
// the telemetry story — they measure the simulator itself, not the
// simulation, and never feed back into any deterministic output.
func (f *Flags) Begin() error {
	if f.TracePath != "" {
		f.Tracer = NewTracer()
	}
	if f.MetricsPath != "" {
		f.Metrics = NewRegistry()
	}
	if f.CPUProfile != "" {
		fh, err := os.Create(f.CPUProfile)
		if err != nil {
			return fmt.Errorf("obs: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(fh); err != nil {
			fh.Close()
			return fmt.Errorf("obs: cpuprofile: %w", err)
		}
		f.cpuFile = fh
	}
	return nil
}

// Finish stops profiling and writes every requested sidecar.
func (f *Flags) Finish() error {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := f.cpuFile.Close(); err != nil {
			return fmt.Errorf("obs: cpuprofile: %w", err)
		}
		f.cpuFile = nil
	}
	if f.MemProfile != "" {
		fh, err := os.Create(f.MemProfile)
		if err != nil {
			return fmt.Errorf("obs: memprofile: %w", err)
		}
		runtime.GC() // settle live heap before the snapshot
		err = pprof.WriteHeapProfile(fh)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("obs: memprofile: %w", err)
		}
	}
	if f.TracePath != "" {
		if err := WriteTraceFile(f.TracePath, f.Tracer); err != nil {
			return err
		}
	}
	if f.MetricsPath != "" {
		if err := WriteMetricsFile(f.MetricsPath, f.Metrics); err != nil {
			return err
		}
	}
	return nil
}

// WriteTraceFile writes the tracer's Chrome trace_event JSON to path.
func WriteTraceFile(path string, t *Tracer) error {
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	err = t.WriteChrome(fh)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	return nil
}

// WriteMetricsFile writes the registry's text rendering to path.
func WriteMetricsFile(path string, r *Registry) error {
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: metrics: %w", err)
	}
	err = r.WriteText(fh)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("obs: metrics: %w", err)
	}
	return nil
}
