// Command sanexp reproduces the tables and figures of the SPAA'97 paper
// "System Area Network Mapping" on the simulated Berkeley NOW.
//
// Usage:
//
//	sanexp [-fig all|3|4|5|6|7|8|9|10|routes|chaos|crosstraffic] [-runs N] [-window W] [-step N] [-seed N] [-dot]
//	       [-trace file.json] [-metrics file]
//
// The multi-trial sweeps (Figs 7, 9, 10, chaos and crosstraffic) run one
// trial per GOMAXPROCS at a time; their output is the same at any setting.
//
// Every report prints the measured values next to the paper's, so the
// shape comparison is visible at a glance. Timings are virtual (see
// simnet.Timing); message counts are algorithmic properties.
//
// The telemetry flags (internal/obs, OBSERVABILITY.md) record the Fig 8
// mapping run: `sanexp -fig 8 -trace out.json` writes a Chrome
// trace_event sidecar of the model-graph growth run, byte-identical for
// the same seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sanmap/internal/experiments"
	"sanmap/internal/mapper"
	"sanmap/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "which figure to reproduce: all, 3, 4, 5, 6, 7, 8, 9, 10, routes, chaos, crosstraffic")
	runs := flag.Int("runs", 5, "repetitions for the Fig 7 timing table and seeds per chaos severity (at least 1)")
	window := flag.Int("window", 8, "pipelined probe window for the Fig 7 pipelined column (1 = serial)")
	step := flag.Int("step", 5, "responder sweep granularity for Fig 9")
	seed := flag.Int64("seed", 1, "seed for randomised orders")
	depth := flag.Int("depth", 0, "probe depth for the Fig 9 sweep (0 = the Q+D bound)")
	dotOut := flag.Bool("dot", false, "emit Graphviz DOT instead of ASCII for figs 4 and 5")
	tsvDir := flag.String("tsv", "", "also write Fig 8/9 series as TSV files into this directory")
	tele := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "sanexp: -runs must be at least 1, got %d\n", *runs)
		os.Exit(2)
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }
	ran := false

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "sanexp: %s: %v\n", name, err)
		os.Exit(1)
	}
	if err := tele.Begin(); err != nil {
		fail("telemetry", err)
	}
	section := func(s string) {
		fmt.Println(strings.Repeat("=", 78))
		fmt.Println(s)
	}

	if want("3") {
		ran = true
		section(experiments.FormatFig3(experiments.Fig3()))
	}
	if want("4") {
		ran = true
		ascii, dotSrc, err := experiments.Fig4()
		if err != nil {
			fail("fig 4", err)
		}
		out := ascii
		if *dotOut {
			out = dotSrc
		}
		section("Fig 4 — mapped subcluster C\n" + out)
	}
	if want("5") {
		ran = true
		ascii, dotSrc, err := experiments.Fig5()
		if err != nil {
			fail("fig 5", err)
		}
		out := ascii
		if *dotOut {
			out = dotSrc
		}
		section("Fig 5 — mapped 100-node system\n" + out)
	}
	if want("6") {
		ran = true
		rows, err := experiments.Fig6()
		if err != nil {
			fail("fig 6", err)
		}
		section(experiments.FormatFig6(rows))
	}
	if want("7") {
		ran = true
		rows, err := experiments.Fig7Sweep(*runs, *window)
		if err != nil {
			fail("fig 7", err)
		}
		section(experiments.FormatFig7(rows))
	}
	if want("8") {
		ran = true
		series, err := experiments.Fig8Obs(tele.Tracer, tele.Metrics)
		if err != nil {
			fail("fig 8", err)
		}
		section(experiments.FormatFig8(series))
		if *tsvDir != "" {
			if err := writeTSV(*tsvDir, "fig8.tsv", fig8TSV(series)); err != nil {
				fail("fig 8 tsv", err)
			}
		}
	}
	if want("9") {
		ran = true
		ordered, random, err := experiments.Fig9Sweep(*step, *seed, *depth)
		if err != nil {
			fail("fig 9", err)
		}
		section(experiments.FormatFig9(ordered, random))
		if *tsvDir != "" {
			if err := writeTSV(*tsvDir, "fig9.tsv", fig9TSV(ordered, random)); err != nil {
				fail("fig 9 tsv", err)
			}
		}
	}
	if want("10") {
		ran = true
		rows, err := experiments.Fig10Sweep()
		if err != nil {
			fail("fig 10", err)
		}
		section(experiments.FormatFig10(rows))
	}
	if want("chaos") {
		ran = true
		seeds := make([]uint64, *runs)
		for i := range seeds {
			seeds[i] = uint64(*seed) + uint64(i)
		}
		rows, err := experiments.ChaosSweep(seeds)
		if err != nil {
			fail("chaos", err)
		}
		section(experiments.FormatChaos(rows))
	}
	if want("routes") {
		ran = true
		report, err := experiments.RoutesReport()
		if err != nil {
			fail("routes", err)
		}
		section(report)
	}
	if want("crosstraffic") {
		ran = true
		rows := experiments.CrossTrafficSweep([]float64{0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.35, 0.45})
		section(experiments.FormatCrossTraffic(rows))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "sanexp: unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	if err := tele.Finish(); err != nil {
		fail("telemetry", err)
	}
}

// writeTSV writes content into dir/name, creating dir if needed.
func writeTSV(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(dir+"/"+name, []byte(content), 0o644)
}

// fig8TSV renders the model-graph growth series.
func fig8TSV(series []mapper.Snapshot) string {
	out := "# exploration\tnodes\tedges\tfrontier\n"
	for _, s := range series {
		out += fmt.Sprintf("%d\t%d\t%d\t%d\n", s.Exploration, s.Vertices, s.Edges, s.Frontier)
	}
	return out
}

// fig9TSV renders both responder-sweep curves (seconds of simulated time).
func fig9TSV(ordered, random []experiments.Fig9Point) string {
	out := "# responders\tordered_s\trandom_s\tordered_probes\trandom_probes\n"
	for i := range ordered {
		r := experiments.Fig9Point{}
		if i < len(random) {
			r = random[i]
		}
		out += fmt.Sprintf("%d\t%.3f\t%.3f\t%d\t%d\n",
			ordered[i].Responders, ordered[i].Time.Seconds(), r.Time.Seconds(),
			ordered[i].Probes, r.Probes)
	}
	return out
}
