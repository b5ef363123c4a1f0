// Package experiments regenerates every table and figure of the SPAA'97
// paper's evaluation (§5): the subcluster component counts (Fig 3), the
// network maps (Figs 4, 5), probe counts and hit ratios (Fig 6), mapping
// times in both operational modes (Fig 7), the model-graph growth series
// (Fig 8), the responder-scaling sweep (Fig 9), the Myricom algorithm
// comparison (Fig 10), and the §5.5 route computation. Each experiment
// returns structured data plus a formatted report that quotes the paper's
// reference numbers next to the measured ones.
//
// Absolute times are simulated (see simnet.Timing); the claims under test
// are the paper's shapes: who wins, by what factor, and where the curves
// bend.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sanmap/internal/cluster"
	"sanmap/internal/dot"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/myricom"
	"sanmap/internal/obs"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/stats"
	"sanmap/internal/topology"
)

// Systems returns the paper's three measured configurations in order.
func Systems(seed int64) []NamedSystem {
	rng := func() *rand.Rand {
		if seed == 0 {
			return nil
		}
		return rand.New(rand.NewSource(seed))
	}
	return []NamedSystem{
		{"C", cluster.CConfig(rng())},
		{"C+A", cluster.CAConfig(rng())},
		{"C+A+B", cluster.CABConfig(rng())},
	}
}

// NamedSystem pairs a configuration with its paper name.
type NamedSystem struct {
	Name string
	Sys  *cluster.System
}

// mapOnce runs the Berkeley mapper on sys and verifies Theorem 1.
func mapOnce(sys *cluster.System, snapshots bool) (*mapper.Map, *simnet.Net, error) {
	return mapOnceObs(sys, snapshots, nil, nil)
}

// mapOnceObs is mapOnce with the run recorded onto the observability
// layer (either argument may be nil).
func mapOnceObs(sys *cluster.System, snapshots bool, tr *obs.Tracer, reg *obs.Registry) (*mapper.Map, *simnet.Net, error) {
	net := sys.Net
	h0 := sys.Mapper()
	sn := simnet.NewDefault(net)
	m, err := mapper.Run(sn.Endpoint(h0),
		mapper.WithDepth(net.DepthBound(h0)), mapper.WithSnapshots(snapshots),
		mapper.WithTracer(tr), mapper.WithMetrics(reg))
	if err != nil {
		return nil, nil, err
	}
	if err := isomorph.MustEqualCore(m.Network, net); err != nil {
		return nil, nil, fmt.Errorf("map verification: %w", err)
	}
	return m, sn, nil
}

// ---------------------------------------------------------------- Fig 3

// Fig3Row is one row of the component-count table.
type Fig3Row struct {
	Subcluster string
	Measured   topology.Stats
	Paper      topology.Stats
}

// Fig3 builds each subcluster and reports its component counts.
func Fig3() []Fig3Row {
	var out []Fig3Row
	for _, s := range []cluster.Subcluster{cluster.A, cluster.B, cluster.C} {
		out = append(out, Fig3Row{
			Subcluster: string(s),
			Measured:   cluster.Build(nil, s).Net.Stats(),
			Paper:      cluster.PaperStats(s),
		})
	}
	return out
}

// FormatFig3 renders the table.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Fig 3 — subcluster components (measured | paper)\n")
	fmt.Fprintf(&b, "%-10s %22s | %s\n", "Subcluster", "interfaces/switches/links", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d/%d/%d | %d/%d/%d\n", r.Subcluster,
			r.Measured.Hosts, r.Measured.Switches, r.Measured.Links,
			r.Paper.Hosts, r.Paper.Switches, r.Paper.Links)
	}
	return b.String()
}

// ------------------------------------------------------------- Fig 4, 5

// Fig4 maps subcluster C and renders the result (the paper's Fig 4 is the
// automatically-generated map of C). It returns the ASCII rendering and the
// DOT document.
func Fig4() (ascii, dotSrc string, err error) {
	m, _, err := mapOnce(Systems(0)[0].Sys, false)
	if err != nil {
		return "", "", err
	}
	return dot.ASCII(m.Network), dot.Graph(m.Network, "subcluster C (mapped)"), nil
}

// Fig5 maps the full 100-node system and renders it.
func Fig5() (ascii, dotSrc string, err error) {
	m, _, err := mapOnce(Systems(0)[2].Sys, false)
	if err != nil {
		return "", "", err
	}
	return dot.ASCII(m.Network), dot.Graph(m.Network, "100-node NOW (mapped)"), nil
}

// ---------------------------------------------------------------- Fig 6

// Fig6Row is one row of the probe-count table.
type Fig6Row struct {
	System       string
	HostProbes   int64
	HostHits     int64
	SwitchProbes int64
	SwitchHits   int64
	// Paper reference values.
	PaperHostProbes, PaperHostHits     int64
	PaperSwitchProbes, PaperSwitchHits int64
}

var fig6Paper = map[string][4]int64{
	// host probes, host hits, switch probes, switch hits
	"C":     {200, 107, 250, 157},
	"C+A":   {412, 216, 491, 295},
	"C+A+B": {804, 324, 1207, 727},
}

// Fig6 maps the three systems and reports probe counts and hit ratios.
func Fig6() ([]Fig6Row, error) {
	var out []Fig6Row
	for _, ns := range Systems(0) {
		m, _, err := mapOnce(ns.Sys, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ns.Name, err)
		}
		p := m.Stats.Probes
		ref := fig6Paper[ns.Name]
		out = append(out, Fig6Row{
			System:     ns.Name,
			HostProbes: p.HostProbes, HostHits: p.HostHits,
			SwitchProbes: p.SwitchProbes, SwitchHits: p.SwitchHits,
			PaperHostProbes: ref[0], PaperHostHits: ref[1],
			PaperSwitchProbes: ref[2], PaperSwitchHits: ref[3],
		})
	}
	return out, nil
}

func pct(hit, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%d%%", 100*hit/total)
}

// FormatFig6 renders the table.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Fig 6 — host and switch probe message hit ratios (measured | paper)\n")
	fmt.Fprintf(&b, "%-7s %9s %6s %6s %9s %6s %6s | paper: host ratio, switch ratio\n",
		"System", "host", "hits", "ratio", "switch", "hits", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %9d %6d %6s %9d %6d %6s | %d/%d=%s, %d/%d=%s\n",
			r.System,
			r.HostProbes, r.HostHits, pct(r.HostHits, r.HostProbes),
			r.SwitchProbes, r.SwitchHits, pct(r.SwitchHits, r.SwitchProbes),
			r.PaperHostProbes, r.PaperHostHits, pct(r.PaperHostHits, r.PaperHostProbes),
			r.PaperSwitchProbes, r.PaperSwitchHits, pct(r.PaperSwitchHits, r.PaperSwitchProbes))
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 7

// Fig7Row is one row of the mapping-times table.
type Fig7Row struct {
	System string
	Master stats.Durations
	// Pipelined is the master-mode time with the pipelined probe engine
	// active (an extension beyond the paper — the serial Master column is
	// the paper-comparable one).
	Pipelined stats.Durations
	Election  stats.Durations
	// Pipeline carries the probe-engine counters of the last pipelined run.
	Pipeline simnet.WindowStats
	// Paper reference strings (ms min/avg/max).
	PaperMaster, PaperElection string
}

// FormatFig7 renders the table, plus the pipelined-engine extension column
// (serial master time vs the same mapping with timeouts overlapped).
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("Fig 7 — mapping times, ms min/avg/max (measured | paper)\n")
	fmt.Fprintf(&b, "%-7s %-22s %-22s %-22s | paper master | paper election\n",
		"System", "master", "pipelined", "election")
	for i := range rows {
		r := &rows[i]
		fmt.Fprintf(&b, "%-7s %-22s %-22s %-22s | %s | %s\n",
			r.System, r.Master.MinAvgMax(), r.Pipelined.MinAvgMax(),
			r.Election.MinAvgMax(), r.PaperMaster, r.PaperElection)
	}
	for i := range rows {
		r := &rows[i]
		speedup := float64(r.Master.Avg()) / float64(r.Pipelined.Avg())
		fmt.Fprintf(&b, "%-7s pipelined speedup %.1fx, engine: %s\n",
			r.System, speedup, r.Pipeline.String())
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 8

// Fig8Obs runs an instrumented mapping of C+A+B and returns the per-switch-
// exploration series of model-graph nodes, edges and frontier size. The
// run is recorded onto the observability layer: the trace carries the
// explore/prune spans and per-probe instants whose density Fig 8's growth
// curve summarises. Either argument may be nil.
func Fig8Obs(tr *obs.Tracer, reg *obs.Registry) ([]mapper.Snapshot, error) {
	m, _, err := mapOnceObs(Systems(0)[2].Sys, true, tr, reg)
	if err != nil {
		return nil, err
	}
	return m.Series, nil
}

// FormatFig8 renders the series as an ASCII plot plus summary landmarks.
func FormatFig8(series []mapper.Snapshot) string {
	nodes := &stats.Series{Name: "#nodes"}
	edges := &stats.Series{Name: "#edges"}
	frontier := &stats.Series{Name: "#frontier"}
	peak := 0
	for _, s := range series {
		nodes.Append(float64(s.Exploration), float64(s.Vertices))
		edges.Append(float64(s.Exploration), float64(s.Edges))
		frontier.Append(float64(s.Exploration), float64(s.Frontier))
		if s.Vertices > peak {
			peak = s.Vertices
		}
	}
	last := series[len(series)-1]
	var b strings.Builder
	b.WriteString("Fig 8 — model graph growth during a C+A+B mapping\n")
	b.WriteString(stats.ASCIIPlot([]*stats.Series{edges, nodes, frontier}, 72, 16))
	fmt.Fprintf(&b, "explorations: %d (paper: ~250)  peak model nodes: %d (paper: ~750)\n",
		last.Exploration, peak)
	fmt.Fprintf(&b, "final: %d nodes, %d edges, frontier 0 (paper: 140 actual nodes after the prune plummet)\n",
		last.Vertices, last.Edges)
	return b.String()
}

// ---------------------------------------------------------------- Fig 9

// Fig9Point is one measurement of the responder sweep.
type Fig9Point struct {
	Responders int
	Time       time.Duration
	Probes     int64
}

// FormatFig9 renders the two curves and the paper's landmarks.
func FormatFig9(ordered, random []Fig9Point) string {
	so := &stats.Series{Name: "subcluster order"}
	sr := &stats.Series{Name: "random order"}
	for _, p := range ordered {
		so.Append(float64(p.Responders), p.Time.Seconds())
	}
	for _, p := range random {
		sr.Append(float64(p.Responders), p.Time.Seconds())
	}
	var b strings.Builder
	b.WriteString("Fig 9 — time to map C+A+B vs number of hosts running a mapper\n")
	b.WriteString(stats.ASCIIPlot([]*stats.Series{so, sr}, 72, 14))
	first, last := ordered[0].Time, ordered[len(ordered)-1].Time
	fmt.Fprintf(&b, "1 responder: %v; all responding: %v; speedup %.1fx (paper: ~8x)\n",
		first.Round(time.Millisecond), last.Round(time.Millisecond),
		float64(first)/float64(last))
	// Random-placement landmarks (paper: within 2x of min after 15 random
	// mappers, 1.5x after 20).
	min := random[len(random)-1].Time
	within := func(factor float64) int {
		for _, p := range random {
			if float64(p.Time) <= factor*float64(min) {
				return p.Responders
			}
		}
		return -1
	}
	fmt.Fprintf(&b, "random placement: within 2x of min after %d mappers (paper: 15), within 1.5x after %d (paper: 20)\n",
		within(2), within(1.5))
	return b.String()
}

// --------------------------------------------------------------- Fig 10

// Fig10Row is one row of the Myricom comparison table.
type Fig10Row struct {
	System   string
	Stats    myricom.Stats
	Berkeley int64         // Berkeley total messages on the same system
	BerkTime time.Duration // Berkeley mapping time
	// Paper reference values: loop, host, sw, comp, total, time(ms).
	Paper [6]int64
}

var fig10Paper = map[string][6]int64{
	"C":     {134, 713, 152, 450, 1449, 1414},
	"C+A":   {283, 1484, 329, 1234, 3330, 2197},
	"C+A+B": {424, 2293, 611, 5089, 8413, 4009},
}

// FormatFig10 renders the table with the §5.4 ratios.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	b.WriteString("Fig 10 — Myricom algorithm performance (measured | paper)\n")
	fmt.Fprintf(&b, "%-7s %6s %6s %6s %6s %7s %9s | %-28s | msg ratio vs Berkeley (paper)\n",
		"System", "loop", "host", "sw", "comp", "total", "time", "paper l/h/s/c/total/ms")
	paperRatio := map[string]string{"C": "3.2", "C+A": "3.6", "C+A+B": "5.4"}
	for _, r := range rows {
		ratio := float64(r.Stats.Total()) / float64(r.Berkeley)
		fmt.Fprintf(&b, "%-7s %6d %6d %6d %6d %7d %9s | %d/%d/%d/%d/%d/%dms | %.1fx (%sx)\n",
			r.System, r.Stats.Loop, r.Stats.Host, r.Stats.Switch, r.Stats.Compare,
			r.Stats.Total(), stats.Ms(r.Stats.Elapsed)+"ms",
			r.Paper[0], r.Paper[1], r.Paper[2], r.Paper[3], r.Paper[4], r.Paper[5],
			ratio, paperRatio[r.System])
		tratio := float64(r.Stats.Elapsed) / float64(r.BerkTime)
		fmt.Fprintf(&b, "%-7s time vs Berkeley: %.1fx (paper: %s)\n", "",
			tratio, map[string]string{"C": "5.5x", "C+A": "3.9x", "C+A+B": "3.9x"}[r.System])
	}
	return b.String()
}

// ------------------------------------------------------------ §5.5 routes

// RoutesReport runs the full §5.5 pipeline on a freshly mapped C+A+B and
// summarises the route set.
func RoutesReport() (string, error) {
	sys := cluster.CABConfig(nil)
	m, _, err := mapOnce(&cluster.System{Net: sys.Net, Utility: sys.Utility, Parts: sys.Parts}, false)
	if err != nil {
		return "", err
	}
	cfg := routes.DefaultConfig()
	if u := m.Network.Lookup(sys.Net.NameOf(sys.Utility)); u != topology.None {
		cfg.IgnoreHosts = []topology.NodeID{u}
	}
	tab, err := routes.Compute(m.Network, cfg)
	if err != nil {
		return "", err
	}
	if err := tab.VerifyUpDown(); err != nil {
		return "", err
	}
	if err := tab.VerifyDeadlockFree(); err != nil {
		return "", err
	}
	if err := tab.VerifyDelivery(m.Network); err != nil {
		return "", err
	}
	hosts := m.Network.NumHosts()
	pairs := 0
	maxLen := 0
	tab.Pairs(func(_, _ topology.NodeID, wires []int, _ simnet.Route) {
		pairs++
		if len(wires) > maxLen {
			maxLen = len(wires)
		}
	})
	var b strings.Builder
	b.WriteString("§5.5 — UP*/DOWN* deadlock-free routes on the mapped 100-node system\n")
	fmt.Fprintf(&b, "root: %s (chosen far from all hosts, utility host ignored)\n",
		m.Network.NameOf(tab.Root))
	fmt.Fprintf(&b, "routes: %d ordered host pairs (%d hosts), longest path %d wires\n",
		pairs, hosts, maxLen)
	fmt.Fprintf(&b, "dominant switches relabelled: %d\n", len(tab.Dominant))
	b.WriteString("verified: up*/down* compliance, channel-dependency acyclicity, delivery of every route\n")
	return b.String(), nil
}
