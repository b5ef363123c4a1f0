package mapd

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"sanmap/internal/genspec"
	"sanmap/internal/obs"
)

// Main is the sanmapd entry point, factored here so cmd/sanmapd stays a
// one-line wrapper and the kill/restart harness can re-exec the test
// binary as a real daemon process. Returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sanmapd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := fs.String("gen", "now-c", "generator spec: "+genspec.Specs())
	seed := fs.Int64("seed", 1, "topology build seed")
	chaos := fs.String("chaos", "", "fault profile to converge against (key=value[,key=value...]; see sanmap -chaos)")
	depth := fs.Int("depth", 0, "base probe depth (0 = derive from the topology)")
	mapperHost := fs.String("mapper", "", "mapping host name (default: utility host, else first host)")
	state := fs.String("state", "", "state directory for epochs and the in-flight job file (required)")
	listen := fs.String("listen", "", "query front-end: unix:PATH or host:port (port 0 picks one)")
	once := fs.Bool("once", false, "exit after initial convergence instead of serving")
	crashAfter := fs.Int("crash-after", 0, "crash injection: kill the process after its n-th durable write (job step or epoch commit)")
	tele := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *state == "" {
		fmt.Fprintln(stderr, "sanmapd: -state is required")
		return 2
	}
	if err := checkDepth(*depth); err != nil {
		fmt.Fprintln(stderr, "sanmapd:", err)
		return 2
	}
	if err := tele.Begin(); err != nil {
		fmt.Fprintln(stderr, "sanmapd:", err)
		return 1
	}
	// The daemon always keeps a registry for its own epoch/job/heal
	// metrics, even when no -metrics sidecar was requested.
	reg := tele.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	srv, err := New(Config{
		Gen: *gen, Seed: *seed, Chaos: *chaos, Depth: *depth, Mapper: *mapperHost,
		StateDir: *state, Listen: *listen, Once: *once, CrashAfter: *crashAfter,
		Interrupt: sigc, Tracer: tele.Tracer, Metrics: reg, Out: stdout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "sanmapd:", err)
		return 1
	}
	runErr := srv.Run()
	if err := tele.Finish(); err != nil {
		fmt.Fprintln(stderr, "sanmapd:", err)
		return 1
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "sanmapd:", runErr)
		return 1
	}
	return 0
}
