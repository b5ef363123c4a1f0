// Command sanload measures route quality under load: it replays a seeded
// traffic plan over a fabric's UP*/DOWN* routes and reports throughput,
// latency percentiles, per-link congestion and deadlock-freedom — on the
// healthy map, on the stale route table after link cuts, and on the healed
// routes after an incremental remap — then runs the branch-and-bound
// placement optimizer over the measured demand matrix. Heal cost becomes a
// measured quantity: lost worms under the stale table, remap probe count,
// and the congestion shift onto the links around the cuts.
//
// Usage:
//
//	sanload [-gen spec] [-pattern uniform|hotspot|permutation] [-load F]
//	        [-msg N] [-duration D] [-seed N] [-cuts N] [-top K] [-place N]
//	        [-plan-out file] [-trace file.json] [-metrics file]
//
// All phases are deterministic: the same flags always print the same bytes
// (the load-smoke CI lane diffs a golden run). See WORKLOADS.md for the
// report format and the sanplan v1 plan file format.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"sanmap/internal/faults"
	"sanmap/internal/genspec"
	"sanmap/internal/loadsim"
	"sanmap/internal/mapper"
	"sanmap/internal/obs"
	"sanmap/internal/place"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

// options collects one run's parameters, so tests can invoke run directly.
type options struct {
	gen      string
	pattern  string
	load     float64
	msg      int
	duration time.Duration
	seed     uint64
	cuts     int
	top      int
	place    int
	planOut  string
	reg      *obs.Registry
	tracer   *obs.Tracer
}

// errUsage marks a flag value no run can honour: run returns it before
// building anything, and main exits with status 2 on it.
var errUsage = errors.New("invalid flag")

// validate rejects the flag values the layers below would quietly turn into
// something else or refuse midway: loadsim.New replays a non-positive -msg
// as 512 bytes and refuses one past loadsim.MaxMsgBytes, NewPlan answers a
// negative -load or -duration with an empty plan, and a negative count
// reads as zero.
func (o options) validate() error {
	switch {
	case o.msg <= 0:
		return fmt.Errorf("%w: -msg %d: payload must be positive", errUsage, o.msg)
	case o.msg > loadsim.MaxMsgBytes:
		return fmt.Errorf("%w: -msg %d: payload cannot exceed %d bytes", errUsage, o.msg, loadsim.MaxMsgBytes)
	case o.load < 0:
		return fmt.Errorf("%w: -load %v: offered load cannot be negative", errUsage, o.load)
	case o.duration < 0:
		return fmt.Errorf("%w: -duration %v: horizon cannot be negative", errUsage, o.duration)
	case o.cuts < 0:
		return fmt.Errorf("%w: -cuts %d: cannot be negative", errUsage, o.cuts)
	case o.top < 0:
		return fmt.Errorf("%w: -top %d: cannot be negative", errUsage, o.top)
	case o.place < 0:
		return fmt.Errorf("%w: -place %d: cannot be negative", errUsage, o.place)
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.gen, "gen", "fattree2:8x2", "fabric generator spec (see sangen -list)")
	flag.StringVar(&o.pattern, "pattern", "uniform", "traffic pattern: uniform, hotspot, permutation")
	flag.Float64Var(&o.load, "load", 0.3, "offered load per host as a fraction of link bandwidth")
	flag.IntVar(&o.msg, "msg", 512, "payload bytes per worm")
	flag.DurationVar(&o.duration, "duration", 500*time.Microsecond, "injection horizon per host (virtual time)")
	var seed int64
	flag.Int64Var(&seed, "seed", 1, "seed for the plan, the cuts and the placement baseline")
	flag.IntVar(&o.cuts, "cuts", 2, "permanent link cuts to inject (0 skips the fault/heal phases)")
	flag.IntVar(&o.top, "top", 5, "congested links to list per report")
	flag.IntVar(&o.place, "place", 8, "heaviest-communicating tasks the placement phase optimizes (0 skips)")
	flag.StringVar(&o.planOut, "plan-out", "", "also write the traffic plan (sanplan v1) to this file")
	tele := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	o.seed = uint64(seed)

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "sanload: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	if err := tele.Begin(); err != nil {
		fail(err)
	}
	o.reg, o.tracer = tele.Metrics, tele.Tracer
	if err := run(o, os.Stdout); err != nil {
		fail(err)
	}
	if err := tele.Finish(); err != nil {
		fail(err)
	}
}

// run executes the full pipeline and writes the deterministic report. Each
// phase starts once its inputs exist: the plan is drawn beside the healthy
// engine's compilation and the heal (it reads only the host list, which
// cuts leave alone); one RunAll replays it on the healthy, stale and healed
// engines at once; the placement search starts on the goroutine of the
// replay it reads as soon as that replay ends, beside the others. The
// sections print in the pipeline's order once everything has ended.
func run(o options, w io.Writer) error {
	if err := o.validate(); err != nil {
		return err
	}
	var pat workload.Pattern
	switch o.pattern {
	case "uniform":
		pat = workload.Uniform
	case "hotspot":
		pat = workload.Hotspot
	case "permutation":
		pat = workload.Permutation
	default:
		return fmt.Errorf("unknown pattern %q", o.pattern)
	}
	res, err := genspec.Build(o.gen, nil)
	if err != nil {
		return err
	}
	net := res.Net
	timing := simnet.DefaultTiming()
	fmt.Fprintf(w, "fabric %s: %d hosts, %d switches, %d wires\n",
		o.gen, net.NumHosts(), net.NumSwitches(), net.NumWires())

	tab, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		return err
	}
	drawn := make(chan *workload.Plan, 1)
	go func() {
		drawn <- workload.NewPlan(net, workload.PlanConfig{
			Pattern: pat, Load: o.load, MsgBytes: o.msg, Duration: o.duration,
			ByteTime: timing.ByteTime, Seed: o.seed,
		})
	}()
	eng, err := loadsim.New(net, tab, timing, o.msg)
	var hl *heal
	if err == nil {
		eng.Instrument(o.reg)
		if o.cuts > 0 {
			hl, err = cutAndHeal(o, net, timing, eng)
		}
	}
	plan := <-drawn
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "plan: pattern=%s load=%.2f msg=%d duration=%v sends=%d seed=%d\n",
		pat, o.load, o.msg, o.duration, plan.TotalSends(), o.seed)
	if o.planOut != "" {
		f, err := os.Create(o.planOut)
		if err != nil {
			return err
		}
		if err := plan.Write(net, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	replays := []loadsim.Replay{{Engine: eng}}
	// After cuts, placement reads what the stale table still delivered —
	// the demand the fabric last measured before its routes were recomputed
	// — over the healed routes, and the golden report pins that choice.
	measured, live := 0, tab
	if hl != nil {
		replays = append(replays, loadsim.Replay{Engine: hl.stale}, loadsim.Replay{Engine: hl.healed})
		measured, live = 1, hl.tab
	}
	var placed bytes.Buffer
	var placeErr error
	if o.place > 0 {
		replays[measured].Then = func(*loadsim.Report) {
			placeErr = placement(o, &placed, replays[measured].Engine, live)
		}
	}
	reps, err := loadsim.RunAll(plan, replays...)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "== healthy routes ==\n")
	if err := reps[0].WriteText(w, net, o.top); err != nil {
		return err
	}
	if hl != nil {
		fmt.Fprintf(w, "== faults ==\n%s== stale table ==\n", hl.faults)
		if err := reps[1].WriteText(w, net, o.top); err != nil {
			return err
		}
		fmt.Fprintf(w, "== heal ==\n%s== healed routes ==\n", hl.remap)
		if err := reps[2].WriteText(w, net, o.top); err != nil {
			return err
		}
		// The heal's congestion bill: the traffic that used the cut wires
		// now crowds the surviving links around them.
		hb, eb := reps[0].BusyOn(hl.adjacent), reps[2].BusyOn(hl.adjacent)
		fmt.Fprintf(w, "congestion on %d links around the cuts: healthy=%v healed=%v (%+d%%)\n",
			len(hl.adjacent), hb, eb, pctDelta(int64(hb), int64(eb)))
	}
	if placeErr != nil {
		return placeErr
	}
	_, err = w.Write(placed.Bytes())
	return err
}

// heal is what the fault → stale → remap → healed phases leave for the
// replays and the report: the two engines, the routes recomputed on the cut
// network, the bodies of the "== faults ==" and "== heal ==" sections
// (worded while the cut wires still existed), and the surviving wires
// around the cuts.
type heal struct {
	stale, healed *loadsim.Engine
	tab           *routes.Table
	faults, remap string
	adjacent      []int
}

// cutAndHeal maps the pristine fabric, cuts links, revalidates a copy of the
// healthy engine against them (the stale table), heals the map
// incrementally and compiles the routes recomputed on the survivor.
func cutAndHeal(o options, net *topology.Network, timing simnet.Timing, healthy *loadsim.Engine) (*heal, error) {
	h0 := net.Hosts()[0]
	depth := net.DepthBound(h0) + net.NumSwitches()
	sn := simnet.NewDefault(net)
	ep := sn.Endpoint(h0)
	sess, err := mapper.NewSession(ep,
		mapper.WithDepth(depth), mapper.WithConfirm(2),
		mapper.WithTracer(o.tracer), mapper.WithMetrics(o.reg))
	if err != nil {
		return nil, err
	}
	if _, err := sess.Map(); err != nil {
		return nil, fmt.Errorf("initial map: %w", err)
	}
	mapProbes := ep.Stats().SwitchProbes + ep.Stats().HostProbes

	hl := &heal{}
	sched := faults.Generate(net, o.seed, faults.Profile{Cuts: o.cuts, Protect: h0})
	ends := make(map[topology.NodeID]bool)
	var cuts strings.Builder
	for _, ev := range sched.Events {
		wire := net.WireByIndex(ev.Wire)
		fmt.Fprintf(&cuts, "cut wire %d sw%d/%d--sw%d/%d\n",
			ev.Wire, wire.A.Node, wire.A.Port, wire.B.Node, wire.B.Port)
		ends[wire.A.Node] = true
		ends[wire.B.Node] = true
	}
	hl.faults = cuts.String()
	faults.NewInjector(sn, sched).ApplyAll()

	hl.stale = healthy.Copy()
	hl.stale.Revalidate()

	healed, err := sess.Remap()
	if err != nil {
		return nil, fmt.Errorf("remap: %w", err)
	}
	healProbes := ep.Stats().SwitchProbes + ep.Stats().HostProbes - mapProbes
	hl.remap = fmt.Sprintf("remap: probes=%d confidence=%.2f suspects=%d partial=%v\n",
		healProbes, healed.Confidence, len(healed.Suspect), healed.Partial)

	if hl.tab, err = routes.Compute(net, routes.DefaultConfig()); err != nil {
		return nil, fmt.Errorf("healed routes: %w", err)
	}
	if hl.healed, err = loadsim.New(net, hl.tab, timing, o.msg); err != nil {
		return nil, err
	}
	hl.healed.Instrument(o.reg)
	hl.adjacent = cutAdjacent(net, ends)
	return hl, nil
}

// cutAdjacent lists the surviving wires incident to either endpoint switch
// of a cut wire — the links the detoured traffic must now share.
func cutAdjacent(net *topology.Network, ends map[topology.NodeID]bool) []int {
	var out []int
	seen := make(map[int]bool)
	net.WiresIndexed(func(idx int, w topology.Wire) {
		if seen[idx] || (!ends[w.A.Node] && !ends[w.B.Node]) {
			return
		}
		seen[idx] = true
		out = append(out, idx)
	})
	sort.Ints(out)
	return out
}

// placement optimizes the placement of the heaviest-communicating tasks
// from the measured demand matrix over the routes the network has now, and
// compares against the identity and random baselines.
func placement(o options, w io.Writer, eng *loadsim.Engine, tab *routes.Table) error {
	if o.place < 2 {
		fmt.Fprintf(w, "== placement ==\nfewer than two tasks to place\n")
		return nil
	}
	m := heaviest(eng.Matrix(), o.place)
	if len(m.Hosts) < 2 {
		fmt.Fprintf(w, "== placement ==\nno measured traffic to place\n")
		return nil
	}
	res, err := place.Optimize(tab, m, place.DefaultConfig())
	if err != nil {
		return err
	}
	idCost, err := place.Cost(tab, m, place.Identity(m))
	if err != nil {
		return err
	}
	rndCost, err := place.Cost(tab, m, place.Shuffled(m, o.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== placement ==\n")
	fmt.Fprintf(w, "tasks=%d identity=%d random=%d optimized=%d (%+d%% vs identity) expanded=%d optimal=%v\n",
		len(m.Hosts), idCost, rndCost, res.Cost, pctDelta(idCost, res.Cost), res.Expanded, res.Optimal)
	return nil
}

// heaviest restricts the demand matrix to the n highest-volume tasks
// (ties: host order), keeping the search tractable on big fabrics.
func heaviest(m *workload.Matrix, n int) *workload.Matrix {
	type hv struct {
		i   int
		vol int64
	}
	tot := make([]hv, len(m.Hosts))
	for i := range m.Hosts {
		tot[i].i = i
		for j := range m.Hosts {
			tot[i].vol += m.Bytes[i][j] + m.Bytes[j][i]
		}
	}
	sort.SliceStable(tot, func(a, b int) bool { return tot[a].vol > tot[b].vol })
	if n > len(tot) {
		n = len(tot)
	}
	keep := make([]int, 0, n)
	for _, t := range tot[:n] {
		if t.vol > 0 {
			keep = append(keep, t.i)
		}
	}
	sort.Ints(keep) // matrix rows stay in host order for determinism
	hosts := make([]topology.NodeID, len(keep))
	for k, i := range keep {
		hosts[k] = m.Hosts[i]
	}
	sub := workload.NewMatrix(hosts)
	for a, i := range keep {
		for b, j := range keep {
			sub.Bytes[a][b] = m.Bytes[i][j]
		}
	}
	return sub
}

// pctDelta returns the percent change from a to b, rounded toward zero.
func pctDelta(a, b int64) int64 {
	if a == 0 {
		return 0
	}
	return (b - a) * 100 / a
}
