// Command benchmark is the repo's end-to-end benchmark harness (see
// README.md in this directory and BENCHMARK.json at the repo root). It drives
// the real sanmapd and sanload binaries as child processes over a real unix
// socket and a real state directory, calls the library's exported functions
// in-process for the mapping kernel, checks every output it times, and
// prints one result object per workload as the last line of standard output.
//
//	go run ./benchmark -workload serve-steady -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloadSpec is one set of inputs the benchmark runs. why is printed with the
// results and mirrored in BENCHMARK.json.
type workloadSpec struct {
	name string
	why  string
	run  func(*bench) error
}

var workloads = []workloadSpec{
	{"serve-steady", "read path alone: one client, closed-loop batches of 64 pipelined route queries against a converged now-cab daemon; mapper and routes idle after start-up", (*bench).serveSteady},
	{"serve-churn", "reads beside writes: pipelined batches of a seeded query mix on one connection while another injects link cuts and waits for each healed epoch (fattree2:32x4)", (*bench).serveChurn},
	{"lifecycle-large", "daemon life on 768 hosts: cold start to first answer, two heals, stop, restart; DepthBound and routes.Compute dominate, the query path does nothing", (*bench).lifecycleLarge},
	{"map-kernel", "the paper's subject in-process: Berkeley serial and window-8, Myricom, election and remap cells in equal shares; mapd, routes and loadsim idle", (*bench).mapKernel},
	{"load-report", "one sanload report per run: plan materialisation and three loadsim replays dominate, with routes, heal and placement as minor parts", (*bench).loadReport},
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	out      string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 records spans around each layer's exported calls and prints the per-layer metrics; 0 prints the end-to-end metrics")
	fs.StringVar(&o.scale, "scale", "full", "input sizes: full (the benchmark) or tiny (smoke test, numbers meaningless)")
	fs.StringVar(&o.out, "out", "", "result file for -compare (default benchmark/out/results[-trace].json)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace != 0
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if err := enterRoot(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	decl, err := loadDecl("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	sz, ok := scales[o.scale]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown -scale %q (full, tiny)\n", o.scale)
		return 2
	}
	var todo []workloadSpec
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown -workload %q\n", o.workload)
		return 2
	}

	// A signal cancels ctx: exec.CommandContext kills every child, blocked
	// socket reads fail, and each workload unwinds through its deferred
	// clean-up, so no daemon or state directory outlives the harness.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runDir := filepath.Join(".bench_build", "run", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(runDir, 0o777); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	hdr := header(o, runDir)
	fmt.Fprint(stdout, hdr.text())
	file := resultFile{Header: hdr}
	code := 0
	for _, w := range todo {
		b := &bench{ctx: ctx, opt: o, sz: sz, decl: decl, runDir: filepath.Join(runDir, w.name), stdout: stdout, wl: w}
		res, err := b.execute()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
			break
		}
		file.Workloads = append(file.Workloads, res)
		if !res.Correct {
			code = 1
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "benchmark: interrupted")
		return 130
	}
	if len(file.Workloads) > 0 {
		if err := file.write(o); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		// The contract line goes last, after everything else is written.
		last := file.Workloads[len(file.Workloads)-1]
		if code == 0 || !last.Correct {
			fmt.Fprintln(stdout, last.contractLine(decl, o.trace))
		}
	}
	return code
}

// enterRoot changes into the module root so that relative paths (cmd/...,
// BENCHMARK.json, .bench_build) mean the same thing under `go run`, `go
// test` and run.sh. Relative paths also keep the unix socket path short
// however deep the checkout sits.
func enterRoot() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(data), "module sanmap\n") {
			return os.Chdir(dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return fmt.Errorf("not inside a sanmap checkout (no go.mod with module sanmap)")
		}
		dir = parent
	}
}

// runHeader records what the numbers depend on besides the code.
type runHeader struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Scale      string  `json:"scale"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	StateFS    string  `json:"state_dir_fs"`
	Transport  string  `json:"transport"`
}

func header(o options, runDir string) runHeader {
	h := runHeader{
		Commit: "unknown", Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Scale: o.scale,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		StateFS:   fsType(runDir),
		Transport: "unix socket on loopback, no real link",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h runHeader) text() string {
	return fmt.Sprintf("# sanmap benchmark: commit %s seed %d seconds %g trace %v scale %s\n"+
		"# nproc %d GOMAXPROCS %d %s; state dir on %s (fsync cost is that filesystem's); %s\n",
		h.Commit, h.Seed, h.Seconds, h.Trace, h.Scale, h.NumCPU, h.GoMaxProcs, h.GoVersion, h.StateFS, h.Transport)
}

// fsType names the filesystem holding dir: heal_ms carries its fsync cost,
// so a tmpfs sandbox reads low with wal_appends_per_heal unchanged.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x2fc12fc1:
		return "zfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}

// resultFile is what -compare reads: one run header and one result per
// workload.
type resultFile struct {
	Header    runHeader  `json:"header"`
	Workloads []*results `json:"workloads"`
}

func (f resultFile) write(o options) error {
	path := o.out
	if path == "" {
		name := "results.json"
		if o.trace {
			name = "results-trace.json"
		}
		path = filepath.Join("benchmark", "out", name)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// since is shorthand for the float millisecond readings every workload takes.
func sinceMs(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
