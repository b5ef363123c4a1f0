package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sanmap/internal/cluster"
	"sanmap/internal/election"
	"sanmap/internal/experiments"
	"sanmap/internal/faults"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/myricom"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// kernelSizes are map-kernel's fabrics and per-cell repetition counts. The
// counts are chosen so that every cell is 12–14 % of a sweep on the commit
// that defined the benchmark, except window-8 on the 1004-switch fat tree,
// which is 22 % at a single repetition: near-equal shares are what let the
// known outliers (election, window-8) move map_sweep_ms visibly.
type kernelSizes struct {
	leaves int    // FatTree2 leaf switches, one host each
	torus  string // genspec of the remap cell's fabric
	reps   map[string]int
}

var kernelFull = kernelSizes{
	leaves: 960, torus: "torus:6x6",
	reps: map[string]int{
		"serial_cab": 130, "window8_cab": 80, "myricom_cab": 68, "election_c": 28,
		"serial_ft1k": 3, "window8_ft1k": 1, "remap_torus": 9,
	},
}

var kernelTiny = kernelSizes{
	leaves: 8, torus: "torus:3x3",
	reps: map[string]int{
		"serial_cab": 1, "window8_cab": 1, "myricom_cab": 1, "election_c": 1,
		"serial_ft1k": 1, "window8_ft1k": 1, "remap_torus": 1,
	},
}

// cellResult is what one library call produced: the simulated quantities
// that must repeat exactly, and the map to check.
type cellResult struct {
	probes int64
	simMs  int64
	mapped *topology.Network
	actual *topology.Network
	window simnet.WindowStats
	remap  int64 // probes the Remap call alone spent
}

// cell is one entry of the sweep: a library entry point on one fabric. rep
// selects the seeded variant of the input (port embedding, election order,
// cut set): how many probes a mapping takes swings by ±20 % with the port
// embedding alone, so every cell cycles through kernelVariants inputs and
// the sweep's work hardly depends on which seed drew them.
type cell struct {
	name string
	span string // the layer span one call is recorded under
	reps int
	run  func(rep int, t *track) (cellResult, error)
}

const kernelVariants = 32

// kernelCells builds the fabrics and the fixed cell list.
func (b *bench) kernelCells() ([]cell, error) {
	ks := b.sz.kernel
	variant := func(i int) *rand.Rand { return b.rng(uint64(100 + i%kernelVariants)) }
	var cabs, cs []*cluster.System
	for i := 0; i < kernelVariants; i++ {
		cabs, cs = append(cabs, cluster.CABConfig(variant(i))), append(cs, cluster.CConfig(variant(i)))
	}
	ft, err := topology.FatTree2(topology.FatTree2Spec{LeafSwitches: ks.leaves, HostsPerLeaf: 1}, nil)
	if err != nil {
		return nil, err
	}
	ftDepth := ft.Diameter() + 2 // on a fat tree the diameter bounds route depth far better than Q+D
	// The depth bound depends on the graph, not on the port embedding.
	cabDepth := cabs[0].Net.DepthBound(cabs[0].Mapper())
	cDepth := cs[0].Net.DepthBound(cs[0].Mapper())

	berkeley := func(net *topology.Network, h0 topology.NodeID, depth, window int) (cellResult, error) {
		sn := simnet.NewDefault(net)
		m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(depth), mapper.WithPipeline(window))
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{
			probes: m.Stats.Probes.TotalProbes(), simMs: m.Stats.Elapsed.Milliseconds(),
			mapped: m.Network, actual: net, window: m.Stats.Pipeline,
		}, nil
	}
	onCAB := func(window int) func(int, *track) (cellResult, error) {
		return func(rep int, _ *track) (cellResult, error) {
			sys := cabs[rep%kernelVariants]
			return berkeley(sys.Net, sys.Mapper(), cabDepth, window)
		}
	}
	onFT := func(window int) func(int, *track) (cellResult, error) {
		return func(int, *track) (cellResult, error) { return berkeley(ft, ft.Hosts()[0], ftDepth, window) }
	}
	cells := []cell{
		{"serial_cab", "mapper.map.serial_cab", 0, onCAB(1)},
		{"window8_cab", "mapper.map.window8_cab", 0, onCAB(8)},
		{"myricom_cab", "myricom.run", 0, func(rep int, _ *track) (cellResult, error) {
			sys := cabs[rep%kernelVariants]
			sn := simnet.New(sys.Net, simnet.PacketModel, simnet.DefaultTiming())
			m, err := myricom.Run(sn.Endpoint(sys.Mapper()), myricom.DefaultConfig(cabDepth))
			if err != nil {
				return cellResult{}, err
			}
			return cellResult{probes: m.Stats.Total(), simMs: m.Stats.Elapsed.Milliseconds(), mapped: m.Network, actual: sys.Net}, nil
		}},
		{"election_c", "election.run", 0, func(rep int, _ *track) (cellResult, error) {
			sys := cs[rep%kernelVariants]
			res, err := election.Run(sys.Net, election.Config{
				Model: simnet.CircuitModel, Timing: simnet.DefaultTiming(),
				Mapper: mapper.DefaultConfig(cDepth),
				Rng:    variant(rep),
			})
			if err != nil {
				return cellResult{}, err
			}
			return cellResult{probes: res.Probes.TotalProbes(), simMs: res.Elapsed.Milliseconds(), mapped: res.Map.Network, actual: sys.Net}, nil
		}},
		{"serial_ft1k", "mapper.map.serial_ft1k", 0, onFT(1)},
		{"window8_ft1k", "mapper.map.window8_ft1k", 0, onFT(8)},
		{"remap_torus", "mapper.session", 0, func(rep int, t *track) (cellResult, error) {
			// Map, cut two links, heal: the daemon's job without the daemon.
			tr, err := newTruth(ks.torus, variant(rep), nil)
			if err != nil {
				return cellResult{}, err
			}
			depth := tr.net.DepthBound(tr.h0) + tr.net.NumSwitches()
			sess, err := mapper.NewSession(tr.sn.Endpoint(tr.h0), mapper.WithDepth(depth), mapper.WithConfirm(2))
			if err != nil {
				return cellResult{}, err
			}
			if _, err := sess.Map(); err != nil {
				return cellResult{}, err
			}
			if err := tr.cut(fmt.Sprintf("seed=%d,cuts=2", uint64(b.opt.seed)*100+uint64(rep%kernelVariants)), t); err != nil {
				return cellResult{}, err
			}
			base := tr.sn.Stats().TotalProbes()
			t.begin("mapper.remap", 0)
			res, err := sess.Remap()
			t.end()
			if err != nil {
				return cellResult{}, err
			}
			return cellResult{
				probes: tr.sn.Stats().TotalProbes(), simMs: tr.sn.Clock().Milliseconds(),
				mapped: res.Network, actual: faults.SurvivingCore(tr.net, tr.h0),
				remap: tr.sn.Stats().TotalProbes() - base,
			}, nil
		}},
	}
	for i := range cells {
		cells[i].reps = ks.reps[cells[i].name]
		if cells[i].reps < 1 {
			return nil, fmt.Errorf("map-kernel: no repetition count for cell %s", cells[i].name)
		}
	}
	return cells, nil
}

// mapKernel is the paper's subject, in-process through the library.
func (b *bench) mapKernel() error {
	var cells []cell
	err := b.setup(func() error {
		var err error
		cells, err = b.kernelCells()
		return err
	})
	if err != nil {
		return err
	}

	// The first sweep is the checked one: every call's map must be
	// isomorphic to its fabric's core. Its simulated quantities are the
	// reference every timed sweep must repeat exactly.
	ref := make([][]cellResult, len(cells))
	var sweepProbes, sweepSimMs float64
	for i, c := range cells {
		for rep := 0; rep < c.reps; rep++ {
			b.attempt(1)
			res, err := c.run(rep, nil)
			if err != nil {
				return fmt.Errorf("cell %s: %w", c.name, err)
			}
			if err := isomorph.MustEqualCore(res.mapped, res.actual); err != nil {
				b.fail("cell %s variant %d: map is not isomorphic to the fabric: %v", c.name, rep, err)
			}
			res.mapped, res.actual = nil, nil
			ref[i] = append(ref[i], res)
			sweepProbes += float64(res.probes)
			sweepSimMs += float64(res.simMs)
		}
	}

	tk := b.tr.newTrack()
	// plain and traced are sweep times at reference speed, in ms.
	plain, traced, err := repeat(b, tk, 1, func(n int, t *track) (float64, error) {
		var ms float64
		speed, err := b.spd.around(func() error {
			start := time.Now()
			for i, c := range cells {
				for rep := 0; rep < c.reps; rep++ {
					t.begin(c.span, int64(n))
					res, err := c.run(rep, t)
					t.end()
					if err != nil {
						return fmt.Errorf("cell %s: %w", c.name, err)
					}
					if want := ref[i][rep]; res.probes != want.probes || res.simMs != want.simMs {
						b.fail("cell %s variant %d sweep %d: %d probes %d sim-ms, first sweep had %d and %d",
							c.name, rep, n, res.probes, res.simMs, want.probes, want.simMs)
					}
				}
				b.attempt(c.reps)
			}
			ms = sinceMs(start)
			return nil
		})
		return ms * speed, err
	})
	if err != nil {
		return err
	}

	// The repo's reference result: total probes against the paper's Fig 6.
	rows, err := experiments.Fig6()
	if err != nil {
		return err
	}
	var errPct float64
	for _, r := range rows {
		got, want := float64(r.HostProbes+r.SwitchProbes), float64(r.PaperHostProbes+r.PaperSwitchProbes)
		errPct += 100 * abs(got-want) / want / float64(len(rows))
	}

	b.named("map_sweep_ms", plain...)
	b.named("map_probes", sweepProbes)
	b.named("map_sim_ms", sweepSimMs)
	b.named("paper_probe_err_pct", errPct)
	b.e2e("latency_ms", plain...)
	b.e2e("tail_ms", upperQuartile(plain))
	b.e2e("throughput", scaleInv(plain, sweepProbes*1e3)...) // simulated probes per host second
	if b.tr == nil {
		return nil
	}

	self := b.selfMs()
	b.layer("trace.overhead_pct", 100*(medianOf(traced)-medianOf(plain))/medianOf(plain))
	b.layer("trace.coverage", coverage(self, traced))
	for _, c := range cells {
		if strings.HasPrefix(c.span, "mapper.map.") {
			b.layer(strings.Replace(c.span, "mapper.map.", "mapper.map_ms.", 1), self[c.span]...)
		}
	}
	b.spanLayers("myricom.run", "election.run", "mapper.remap", "faults.generate", "faults.apply")
	for i, c := range cells {
		of := func(f func(cellResult) int64) []float64 {
			out := make([]float64, len(ref[i]))
			for k, r := range ref[i] {
				out[k] = float64(f(r))
			}
			return out
		}
		switch c.name {
		case "myricom_cab":
			b.layer("myricom.probes", of(func(r cellResult) int64 { return r.probes })...)
		case "election_c":
			b.layer("election.sim_ms", of(func(r cellResult) int64 { return r.simMs })...)
		case "window8_ft1k":
			b.layer("simnet.window_submitted", of(func(r cellResult) int64 { return r.window.Submitted })...)
			b.layer("simnet.window_retries", of(func(r cellResult) int64 { return r.window.Retries })...)
		case "remap_torus":
			b.layer("mapper.remap_probes", of(func(r cellResult) int64 { return r.remap })...)
		}
	}
	b.layer("simnet.probes", sweepProbes)
	b.layer("proc.peak_rss_mb", peakRSSMB("self")) // the library runs in-process, so the harness's memory is its memory
	return b.evalLayers()
}

// evalLayers times the simulator's inner loop on its own: Net.Eval over the
// UP*/DOWN* routes between seeded host pairs of the NOW fabric.
func (b *bench) evalLayers() error {
	tr, err := b.newTruth("now-cab", nil)
	if err != nil {
		return err
	}
	tab, err := routes.Compute(tr.net, routes.DefaultConfig())
	if err != nil {
		return err
	}
	type evalCase struct {
		src   topology.NodeID
		route simnet.Route
		dst   topology.NodeID
	}
	var set []evalCase
	for _, p := range tr.pairs(b.rng(4), 1024) {
		src, dst := tr.net.Lookup(p[0]), tr.net.Lookup(p[1])
		if route, ok := tab.Route(src, dst); ok {
			set = append(set, evalCase{src, route, dst})
		}
	}
	if len(set) == 0 {
		return fmt.Errorf("no routes to evaluate")
	}
	start := time.Now()
	for i := 0; i < b.sz.evalRoutes; i++ {
		c := set[i%len(set)]
		if res := tr.sn.Eval(c.src, c.route); i < len(set) && (!res.OK() || res.Dest != c.dst) {
			b.fail("eval %v from %d: %v at %d, want delivery at %d", c.route, c.src, res.Outcome, res.Dest, c.dst)
		}
	}
	b.attempt(len(set))
	b.layer("simnet.eval_ns", b.ref(float64(time.Since(start))/float64(b.sz.evalRoutes))...)

	// The route-prefix memo's hit ratio over one serial mapping of the same
	// fabric: the access pattern it was built for.
	sn := simnet.NewDefault(tr.net)
	if _, err := mapper.Run(sn.Endpoint(tr.h0), mapper.WithDepth(tr.net.DepthBound(tr.h0))); err != nil {
		return err
	}
	b.layer("simnet.evalcache_hit_ratio", sn.EvalCacheStats().HitRate())
	return nil
}

// coverage is the share of the traced sweeps' host time that the layer
// spans under them account for.
func coverage(self map[string][]float64, sweeps []float64) float64 {
	var covered float64
	for _, ms := range self {
		covered += sum(ms)
	}
	return covered / sum(sweeps)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
