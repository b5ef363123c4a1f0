// Command sanmap maps a system area network and computes deadlock-free
// routes from the map — the paper's full pipeline on one topology.
//
// Usage:
//
//	sanmap [-topo file | -gen spec] [-algo berkeley|myricom|label|random]
//	       [-model circuit|cutthrough|packet] [-depth N] [-mapper host]
//	       [-routes] [-dot] [-v] [-chaos seed=N[,cuts=N,flaps=N,kills=N,loss=F,...]]
//	       [-window N] [-trace file.json] [-metrics file] [-tracelog]
//
// -window N keeps up to N probes in flight (the map is the serial one, the
// virtual time shorter). Only -algo berkeley and -algo random probe through
// a window: with myricom, label or -chaos, N > 1 is refused (exit status 2)
// rather than mapped serially without a word.
//
// The telemetry flags are the unified observability surface (see
// internal/obs and OBSERVABILITY.md): -trace writes a Chrome trace_event
// JSON sidecar of the run (load it in chrome://tracing or Perfetto),
// -metrics the metrics registry as text, -cpuprofile/-memprofile pprof
// profiles of the simulator itself. -tracelog dumps the run's
// deterministic text log (spans and mapper events) to stderr afterwards.
//
// The topology comes either from a file in the topology text format
// (-topo) or from a generator spec (-gen), e.g.:
//
//	sanmap -gen now-c -routes
//	sanmap -gen fattree:4x4 -algo myricom
//	sanmap -gen random:8,20,4 -model cutthrough -v
//	sanmap -gen hypercube:3 -dot
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"sanmap/internal/dot"
	"sanmap/internal/genspec"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/myricom"
	"sanmap/internal/obs"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

func main() {
	topoFile := flag.String("topo", "", "topology file (text format)")
	gen := flag.String("gen", "now-c", "generator spec: "+genspec.Specs())
	algo := flag.String("algo", "berkeley", "mapping algorithm: berkeley, myricom, label, random")
	model := flag.String("model", "circuit", "collision model: circuit, cutthrough, packet")
	depth := flag.Int("depth", 0, "probe depth (0 = computed Q+D bound)")
	mapperHost := flag.String("mapper", "", "mapping host name (default: utility host or first host)")
	doRoutes := flag.Bool("routes", false, "compute and verify UP*/DOWN* routes from the map")
	dotOut := flag.Bool("dot", false, "print the mapped network as Graphviz DOT")
	verbose := flag.Bool("v", false, "print probe statistics")
	traceOut := flag.Bool("tracelog", false, "dump the run's trace text log to stderr (berkeley/random only)")
	seed := flag.Int64("seed", 1, "seed for randomised algorithms and port embeddings")
	window := flag.Int("window", 1, "probes in flight (1 = serial); above 1 only with -algo berkeley or random, and not with -chaos")
	chaos := flag.String("chaos", "", "map under injected faults with self-healing, e.g. seed=3 or seed=3,cuts=2,loss=0.02")
	tele := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := checkWindow(*window, *algo, *chaos != ""); err != nil {
		fmt.Fprintf(os.Stderr, "sanmap: %v\n", err)
		os.Exit(2)
	}
	if err := tele.Begin(); err != nil {
		die("%v", err)
	}

	net, utility, err := loadTopology(*topoFile, *gen, *seed)
	if err != nil {
		die("topology: %v", err)
	}
	h0, err := net.MappingHost(utility, *mapperHost)
	if err != nil {
		die("%v", err)
	}
	d := *depth
	if d == 0 {
		d = net.DepthBound(h0)
	}
	if *chaos != "" {
		if err := runChaos(*chaos, net, h0, parseModel(*model), d, *verbose, tele); err != nil {
			die("%v", err)
		}
		if err := tele.Finish(); err != nil {
			die("%v", err)
		}
		return
	}
	m, err := runAlgo(*algo, net, h0, parseModel(*model), d, *seed, *traceOut, *window, tele)
	if err != nil {
		die("mapping: %v", err)
	}
	if err := tele.Finish(); err != nil {
		die("%v", err)
	}

	fmt.Printf("actual network: %v (diameter %d)\n", net, net.Diameter())
	fmt.Printf("mapped network: %v using %s probing to depth %d\n", m.Network, *algo, d)
	if err := isomorph.MustEqualCore(m.Network, net); err != nil {
		fmt.Printf("verification: %v\n", err)
	} else {
		fmt.Println("verification: map is isomorphic to N-F (Theorem 1 holds)")
	}
	if *verbose {
		s := m.Stats
		fmt.Printf("probes: %d host (%d hits), %d switch (%d hits); %d explorations, %d merges, %d pruned; elapsed %v\n",
			s.Probes.HostProbes, s.Probes.HostHits,
			s.Probes.SwitchProbes, s.Probes.SwitchHits,
			s.Explorations, s.Merges, s.PrunedVerts, s.Elapsed)
	}
	if *dotOut {
		fmt.Print(dot.Graph(m.Network, "mapped"))
	} else {
		fmt.Print(dot.ASCII(m.Network))
	}

	if *doRoutes {
		cfg := routes.DefaultConfig()
		if utility != "" {
			if u := m.Network.Lookup(utility); u != topology.None {
				cfg.IgnoreHosts = []topology.NodeID{u}
			}
		}
		tab, err := routes.Compute(m.Network, cfg)
		if err != nil {
			die("routes: %v", err)
		}
		checks := []struct {
			name string
			err  error
		}{
			{"up*/down* compliance", tab.VerifyUpDown()},
			{"deadlock freedom", tab.VerifyDeadlockFree()},
			{"delivery", tab.VerifyDelivery(m.Network)},
		}
		for _, c := range checks {
			status := "ok"
			if c.err != nil {
				status = c.err.Error()
			}
			fmt.Printf("routes: %-22s %s\n", c.name, status)
		}
		tables := tab.Distribute()
		fmt.Printf("routes: distributed %d per-interface tables (root %s)\n",
			len(tables), m.Network.NameOf(tab.Root))
	}
}

// checkWindow refuses a -window the chosen run would not honour: only the
// Berkeley and randomized mappers probe through a window, and a -chaos run
// is a serial self-healing session whatever -algo says.
func checkWindow(window int, algo string, chaos bool) error {
	serial := ""
	switch {
	case window <= 1:
	case chaos:
		serial = "a -chaos run"
	case algo == "myricom" || algo == "label":
		serial = "-algo " + algo
	}
	if serial == "" {
		return nil
	}
	return fmt.Errorf("-window %d: %s maps serially; only -algo berkeley and -algo random take a window", window, serial)
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sanmap: "+format+"\n", args...)
	os.Exit(1)
}

func loadTopology(file, gen string, seed int64) (*topology.Network, string, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		net, err := topology.ReadFrom(f)
		return net, "", err
	}
	res, err := genspec.Build(gen, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, "", err
	}
	return res.Net, res.Utility, nil
}

func parseModel(s string) simnet.Model {
	switch s {
	case "circuit":
		return simnet.CircuitModel
	case "cutthrough":
		return simnet.CutThroughModel
	case "packet":
		return simnet.PacketModel
	}
	die("unknown collision model %q", s)
	return simnet.Model{}
}

func runAlgo(algo string, net *topology.Network, h0 topology.NodeID,
	model simnet.Model, depth int, seed int64, trace bool, window int, tele *obs.Flags) (*mapper.Map, error) {
	sn := simnet.New(net, model, simnet.DefaultTiming())
	// -tracelog records onto the telemetry tracer (allocating a private one
	// when -trace is off) and dumps the deterministic text log afterwards.
	tr := tele.Tracer
	if trace && tr == nil {
		tr = obs.NewTracer()
	}
	opts := []mapper.Option{mapper.WithDepth(depth), mapper.WithPipeline(window),
		mapper.WithTracer(tr), mapper.WithMetrics(tele.Metrics)}
	run := func() (*mapper.Map, error) {
		switch algo {
		case "berkeley":
			return mapper.Run(sn.Endpoint(h0), opts...)
		case "label":
			return mapper.LabelRun(sn.Endpoint(h0), depth)
		case "random":
			return mapper.RandomizedRun(sn.Endpoint(h0), mapper.RandomizedConfig{
				Config:       mapper.BuildConfig(opts...),
				CouponProbes: 32 * net.NumSwitches(),
				Rng:          rand.New(rand.NewSource(seed)),
			})
		case "myricom":
			my, err := myricom.Run(sn.Endpoint(h0), myricom.DefaultConfig(depth))
			if err != nil {
				return nil, err
			}
			// Adapt to the common result shape for printing.
			return &mapper.Map{Network: my.Network, Mapper: my.Mapper}, nil
		}
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	m, err := run()
	if trace && err == nil && tr != nil {
		if werr := tr.WriteText(os.Stderr); werr != nil {
			return nil, werr
		}
	}
	return m, err
}
