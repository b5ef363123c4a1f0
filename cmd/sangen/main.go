// Command sangen generates system-area-network topologies in the textual
// format consumed by sanmap, and reports their analysis parameters (the
// quantities §3.1.4 of the paper defines: diameter D, probe bound Q, the
// unmappable set F).
//
// Usage:
//
//	sangen -gen now-cab -o cab.san
//	sangen -gen random:8,20,4 -seed 7 -analyze
//	sangen -gen fattree:6x4 -tail 2 -analyze      # adds a hostless F region
//	sangen -list                                  # enumerate registered generators
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"sanmap/internal/experiments"
	"sanmap/internal/genspec"
	"sanmap/internal/topology"
)

func main() {
	gen := flag.String("gen", "now-c", "generator spec (see -list)")
	out := flag.String("o", "", "output file (default stdout)")
	seed := flag.Int64("seed", 1, "random seed for port embeddings")
	tail := flag.Int("tail", 0, "attach a hostless switch tail of this length (creates F)")
	loops := flag.Int("loops", 0, "add this many loopback plugs on free switch ports")
	analyze := flag.Bool("analyze", false, "print D, Q, |F| and other analysis parameters")
	list := flag.Bool("list", false, "list registered generators and exit")
	flag.Parse()

	if *list {
		listGenerators(os.Stdout)
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	res, err := genspec.Build(*gen, rng)
	if err != nil {
		die("%v", err)
	}
	net := res.Net
	if *tail > 0 {
		sw := net.Switches()
		topology.WithTail(net, sw[rng.Intn(len(sw))], *tail, rng)
	}
	for i := 0; i < *loops; i++ {
		placed := false
		for _, s := range net.Switches() {
			if p := net.FreePort(s); p >= 0 {
				if err := net.AddReflector(s, p); err == nil {
					placed = true
					break
				}
			}
		}
		if !placed {
			die("no free port for loopback plug %d", i)
		}
	}
	if err := net.Validate(); err != nil {
		die("generated network invalid: %v", err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			die("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := net.Write(w); err != nil {
		die("write: %v", err)
	}

	if *analyze {
		if err := printAnalysis(os.Stderr, net); err != nil {
			die("%v", err)
		}
	}
}

// listGenerators enumerates the genspec registry, one generator per line.
func listGenerators(w io.Writer) {
	for _, name := range genspec.Names() {
		g, _ := genspec.Lookup(name)
		desc := ""
		if d, ok := g.(genspec.Describer); ok {
			desc = d.Describe()
		}
		fmt.Fprintf(w, "%-22s %s\n", genspec.UsageOf(g), desc)
	}
}

// printAnalysis writes the §3.1.4 analysis parameters of net to w. The
// output is a pure function of the network: it is byte-identical across
// runs and GOMAXPROCS settings (the regression test in main_test.go holds
// it to that).
func printAnalysis(w io.Writer, net *topology.Network) error {
	h0 := net.Hosts()[0]
	q, undef := net.Q(h0)
	d := net.Diameter()
	fmt.Fprintf(w, "analysis: %v\n", net)
	fmt.Fprintf(w, "  diameter D      = %d\n", d)
	fmt.Fprintf(w, "  probe bound Q   = %d (from %s)\n", q, net.NameOf(h0))
	fmt.Fprintf(w, "  search depth    = %d (Q+D)\n", q+d)
	fmt.Fprintf(w, "  |F|             = %d\n", len(undef))
	fmt.Fprintf(w, "  switch-bridges  = %d\n", len(net.SwitchBridges()))
	fmt.Fprintf(w, "  loopback plugs  = %d\n", len(net.Reflectors()))

	// Per-host probe bounds: the Q each candidate mapper host would
	// need, computed through the parallel sweep runner (one min-cost
	// flow sweep per host; output is identical at any GOMAXPROCS).
	rows, err := experiments.HostQTable(net)
	if err != nil {
		return fmt.Errorf("host Q table: %w", err)
	}
	minQ, maxQ, sum := rows[0], rows[0], 0
	for _, r := range rows {
		if r.Q < minQ.Q {
			minQ = r
		}
		if r.Q > maxQ.Q {
			maxQ = r
		}
		sum += r.Q
	}
	fmt.Fprintf(w, "  per-host Q      = %d (%s) .. %d (%s), avg %.1f over %d hosts\n",
		minQ.Q, minQ.Host, maxQ.Q, maxQ.Host, float64(sum)/float64(len(rows)), len(rows))
	return nil
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sangen: "+format+"\n", args...)
	os.Exit(1)
}
