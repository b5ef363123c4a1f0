// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus ablations for the design choices DESIGN.md calls out. The benchmark
// numbers are host CPU time for running the algorithms over the simulator;
// the paper-comparable quantities (probe counts, simulated times) are
// reported as custom metrics: probes/op and sim-ms/op.
package sanmap_test

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sanmap/internal/cluster"
	"sanmap/internal/election"
	"sanmap/internal/experiments"
	"sanmap/internal/genspec"
	"sanmap/internal/loadsim"
	"sanmap/internal/mapd"
	"sanmap/internal/mapper"
	"sanmap/internal/myricom"
	"sanmap/internal/obs"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
	"sanmap/internal/wormsim"
)

// reportMap attaches the paper-comparable metrics to a mapping result.
func reportMap(b *testing.B, m *mapper.Map) {
	b.ReportMetric(float64(m.Stats.Probes.TotalProbes()), "probes/op")
	b.ReportMetric(float64(m.Stats.Elapsed.Milliseconds()), "sim-ms/op")
}

// benchBerkeley is the Fig 6/7 master-mode benchmark body.
func benchBerkeley(b *testing.B, sys *cluster.System) {
	b.Helper()
	net := sys.Net
	h0 := sys.Mapper()
	depth := net.DepthBound(h0)
	var last *mapper.Map
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := simnet.NewDefault(net)
		m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(depth))
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.StopTimer()
	reportMap(b, last)
}

// Fig 6 / Fig 7 (master column): Berkeley mapping of the three systems.
func BenchmarkMapMasterC(b *testing.B)   { benchBerkeley(b, cluster.CConfig(nil)) }
func BenchmarkMapMasterCA(b *testing.B)  { benchBerkeley(b, cluster.CAConfig(nil)) }
func BenchmarkMapMasterCAB(b *testing.B) { benchBerkeley(b, cluster.CABConfig(nil)) }

// benchPipelined compares the serial explore loop against the pipelined
// probe engine at increasing window sizes. The interesting metric is
// sim-ms/op: virtual mapping time collapses as the engine overlaps response
// timeouts (§5.2's dominant cost), while probes/op stays within the
// speculation overhead of the serial count.
func benchPipelined(b *testing.B, sys *cluster.System) {
	b.Helper()
	net := sys.Net
	h0 := sys.Mapper()
	depth := net.DepthBound(h0)
	for _, w := range []int{1, 8, 16} {
		name := "serial"
		if w > 1 {
			name = fmt.Sprintf("window%d", w)
		}
		b.Run(name, func(b *testing.B) {
			var last *mapper.Map
			for i := 0; i < b.N; i++ {
				sn := simnet.NewDefault(net)
				m, err := mapper.Run(sn.Endpoint(h0),
					mapper.WithDepth(depth), mapper.WithPipeline(w))
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.StopTimer()
			reportMap(b, last)
			b.ReportMetric(float64(last.Stats.Pipeline.Submitted), "submitted/op")
		})
	}
}

// Tentpole acceptance: the pipelined engine vs the serial loop on C and on
// the full 100-node system (window >= 8 must at least halve sim-ms/op).
func BenchmarkPipelinedVsSerialC(b *testing.B)   { benchPipelined(b, cluster.CConfig(nil)) }
func BenchmarkPipelinedVsSerialCAB(b *testing.B) { benchPipelined(b, cluster.CABConfig(nil)) }

// Fig 7 (election column): election-mode mapping of subcluster C.
func BenchmarkMapElectionC(b *testing.B) {
	sys := cluster.CConfig(nil)
	depth := sys.Net.DepthBound(sys.Mapper())
	var sim float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := election.Run(sys.Net, election.Config{
			Model:  simnet.CircuitModel,
			Timing: simnet.DefaultTiming(),
			Mapper: mapper.DefaultConfig(depth),
			Rng:    rand.New(rand.NewSource(int64(i) + 1)),
		})
		if err != nil {
			b.Fatal(err)
		}
		sim = float64(res.Elapsed.Milliseconds())
	}
	b.ReportMetric(sim, "sim-ms/op")
}

// Fig 8: the instrumented C+A+B run (snapshot overhead included).
func BenchmarkMapInstrumentedCAB(b *testing.B) {
	sys := cluster.CABConfig(nil)
	depth := sys.Net.DepthBound(sys.Mapper())
	var last *mapper.Map
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := simnet.NewDefault(sys.Net)
		m, err := mapper.Run(sn.Endpoint(sys.Mapper()),
			mapper.WithDepth(depth), mapper.WithSnapshots(true))
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.StopTimer()
	reportMap(b, last)
	b.ReportMetric(float64(len(last.Series)), "snapshots/op")
}

// Fig 9's hardest point: a single responding host on subcluster C (the
// full sweep lives in cmd/sanexp -fig 9).
func BenchmarkMapSingleResponderC(b *testing.B) {
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	depth := sys.Net.DepthBound(h0)
	var last *mapper.Map
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := simnet.NewDefault(sys.Net)
		for _, h := range sys.Net.Hosts() {
			if h != h0 {
				sn.SetResponder(h, false)
			}
		}
		m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(depth))
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.StopTimer()
	reportMap(b, last)
}

// Fig 10: the Myricom baseline on the three systems.
func benchMyricom(b *testing.B, sys *cluster.System) {
	b.Helper()
	net := sys.Net
	h0 := sys.Mapper()
	depth := net.DepthBound(h0)
	var last *myricom.Map
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := simnet.New(net, simnet.PacketModel, simnet.DefaultTiming())
		m, err := myricom.Run(sn.Endpoint(h0), myricom.DefaultConfig(depth))
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Stats.Total()), "probes/op")
	b.ReportMetric(float64(last.Stats.Elapsed.Milliseconds()), "sim-ms/op")
}

func BenchmarkMyricomC(b *testing.B)   { benchMyricom(b, cluster.CConfig(nil)) }
func BenchmarkMyricomCAB(b *testing.B) { benchMyricom(b, cluster.CABConfig(nil)) }

// §5.5: UP*/DOWN* route computation over the mapped 100-node system.
func BenchmarkRoutesCAB(b *testing.B) {
	sys := cluster.CABConfig(nil)
	sn := simnet.NewDefault(sys.Net)
	m, err := mapper.Run(sn.Endpoint(sys.Mapper()), mapper.WithDepth(sys.Net.DepthBound(sys.Mapper())))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routes.Compute(m.Network, routes.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------------- ablations

// Ablation 1 (§3.3 merging styles): production object-merge vs the §3.1
// label algorithm on a small network (the label variant is exponential).
func BenchmarkAblationLabelsVsMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := topology.MustRandomConnected(3, 4, 1, rng)
	h0 := net.Hosts()[0]
	depth := net.DepthBound(h0)
	if depth > 8 {
		depth = 8
	}
	b.Run("merge", func(b *testing.B) {
		var last *mapper.Map
		for i := 0; i < b.N; i++ {
			sn := simnet.NewDefault(net)
			m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(depth))
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		b.StopTimer()
		reportMap(b, last)
	})
	b.Run("labels", func(b *testing.B) {
		var last *mapper.Map
		for i := 0; i < b.N; i++ {
			sn := simnet.NewDefault(net)
			m, err := mapper.LabelRun(sn.Endpoint(h0), depth)
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		b.StopTimer()
		reportMap(b, last)
	})
}

// Ablation 2: replicate policy (frontier dedup vs retry vs explore-all).
func BenchmarkAblationPolicy(b *testing.B) {
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	depth := sys.Net.DepthBound(h0)
	for _, pc := range []struct {
		name   string
		policy mapper.ReplicatePolicy
	}{
		{"dedup", mapper.DedupFrontier},
		{"retry-unknown", mapper.RetryUnknown},
		{"explore-all", mapper.ExploreAll},
	} {
		b.Run(pc.name, func(b *testing.B) {
			var last *mapper.Map
			for i := 0; i < b.N; i++ {
				sn := simnet.NewDefault(sys.Net)
				m, err := mapper.Run(sn.Endpoint(h0),
					mapper.WithDepth(depth), func(c *mapper.Config) { c.Policy = pc.policy })
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.StopTimer()
			reportMap(b, last)
		})
	}
}

// Ablation 3 (§3.3 probe heuristics): small-turns-first + safe elimination
// vs a naive −7..+7 scan with no elimination. The paper conjectures "the
// total number of messages can be reduced by factors of 2 or more based
// upon our experience with cleverly choosing the sequence that switch ports
// are probed".
func BenchmarkAblationProbeOrder(b *testing.B) {
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	depth := sys.Net.DepthBound(h0)
	for _, pc := range []struct {
		name      string
		order     mapper.TurnOrder
		eliminate bool
	}{
		{"heuristic+elim", mapper.SmallTurnsFirst, true},
		{"naive", mapper.NaiveScan, false},
	} {
		b.Run(pc.name, func(b *testing.B) {
			var last *mapper.Map
			for i := 0; i < b.N; i++ {
				sn := simnet.NewDefault(sys.Net)
				m, err := mapper.Run(sn.Endpoint(h0),
					mapper.WithDepth(depth), func(c *mapper.Config) {
						c.TurnOrder, c.EliminateProbes = pc.order, pc.eliminate
					})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.StopTimer()
			reportMap(b, last)
		})
	}
}

// Ablation 4 (§2.3.1 collision models): same mapping under the three worm
// semantics.
func BenchmarkAblationCollisionModel(b *testing.B) {
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	depth := sys.Net.DepthBound(h0)
	for _, mc := range []struct {
		name  string
		model simnet.Model
	}{
		{"packet", simnet.PacketModel},
		{"cutthrough", simnet.CutThroughModel},
		{"circuit", simnet.CircuitModel},
	} {
		b.Run(mc.name, func(b *testing.B) {
			var last *mapper.Map
			for i := 0; i < b.N; i++ {
				sn := simnet.New(sys.Net, mc.model, simnet.DefaultTiming())
				m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(depth))
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.StopTimer()
			reportMap(b, last)
		})
	}
}

// Ablation 5 (§3.1.4 depth bound): the paper's Q+D versus the packet-proof
// 2D+1 versus a too-deep bound.
func BenchmarkAblationDepth(b *testing.B) {
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	net := sys.Net
	q, _ := net.Q(h0)
	d := net.Diameter()
	for _, dc := range []struct {
		name  string
		depth int
	}{
		{"Q+D", q + d},
		{"2D+1", 2*d + 1},
		{"Q+D+4", q + d + 4},
	} {
		b.Run(dc.name, func(b *testing.B) {
			var last *mapper.Map
			for i := 0; i < b.N; i++ {
				sn := simnet.NewDefault(net)
				m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(dc.depth))
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.StopTimer()
			reportMap(b, last)
		})
	}
}

// Extension (§6): the randomized coupon-collector hybrid vs plain BFS on an
// expander-ish topology.
func BenchmarkRandomizedHybrid(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := topology.MustHypercube(4, 1, rng)
	h0 := net.Hosts()[0]
	depth := net.DepthBound(h0)
	b.Run("bfs", func(b *testing.B) {
		var last *mapper.Map
		for i := 0; i < b.N; i++ {
			sn := simnet.NewDefault(net)
			m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(depth))
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		b.StopTimer()
		reportMap(b, last)
	})
	// hybrid-window8 sends the coupon batch through ProbeWindow.Do, the one
	// caller that hands a window a whole batch at once.
	for _, hc := range []struct {
		name   string
		window int
	}{{"hybrid", 1}, {"hybrid-window8", 8}} {
		b.Run(hc.name, func(b *testing.B) {
			cfg := mapper.DefaultConfig(depth)
			cfg.Pipeline = simnet.WindowConfig{Window: hc.window}
			var last *mapper.Map
			for i := 0; i < b.N; i++ {
				sn := simnet.NewDefault(net)
				m, err := mapper.RandomizedRun(sn.Endpoint(h0), mapper.RandomizedConfig{
					Config:       cfg,
					CouponProbes: 200,
					Rng:          rand.New(rand.NewSource(int64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.StopTimer()
			reportMap(b, last)
			b.ReportMetric(float64(last.Stats.Pipeline.Submitted), "submitted/op")
		})
	}
}

// BenchmarkRandomizedTrials runs batches of independent hybrid trials
// through experiments.Sweep under GOMAXPROCS 1 and 4 — the randomized-trial
// counterpart of the Fig 7/9/10 sweeps. Results are deterministic per trial
// seed, so both lanes do identical work.
func BenchmarkRandomizedTrials(b *testing.B) {
	const trials, coupons, seed = 8, 200, 3
	for _, bc := range []struct {
		name  string
		procs int
	}{{"serial", 1}, {"parallel4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bc.procs))
			var probes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiments.RandomizedTrials(trials, coupons, seed)
				if err != nil {
					b.Fatal(err)
				}
				probes = 0
				for _, r := range res {
					probes += r.Probes
				}
			}
			b.ReportMetric(float64(probes), "probes/op")
		})
	}
}

// ------------------------------------------------------------ micro-level

// BenchmarkEvalRoute measures the simulator's inner loop (the steady-state
// regime: repeated probes from one source, as the mapper's frontier issues
// them). The alloc report locks the zero-allocation property.
func BenchmarkEvalRoute(b *testing.B) {
	sys := cluster.CABConfig(nil)
	sn := simnet.NewDefault(sys.Net)
	h0 := sys.Mapper()
	route := simnet.Route{1, -2, 3, -1, 2, -3, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.Eval(h0, route)
	}
}

// BenchmarkEvalRouteColdCache is the same walk with the route-prefix memo
// defeated every iteration (alternating sources), measuring the full
// traversal cost rather than the exact-repeat fast path.
func BenchmarkEvalRouteColdCache(b *testing.B) {
	sys := cluster.CABConfig(nil)
	sn := simnet.NewDefault(sys.Net)
	hosts := sys.Net.Hosts()
	h0, h1 := hosts[0], hosts[1]
	route := simnet.Route{1, -2, 3, -1, 2, -3, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			sn.Eval(h0, route)
		} else {
			sn.Eval(h1, route)
		}
	}
}

// fatTree1k is the PR-6 scale lane's fabric: 960 leaves, one host each,
// 44 auto-sized spines — 1004 switches, the smallest configuration past
// the 1k-switch bar. Deterministic (nil rng), so probe counts are stable.
func fatTree1k() *topology.Network {
	return topology.MustFatTree2(topology.FatTree2Spec{LeafSwitches: 960, HostsPerLeaf: 1}, nil)
}

// BenchmarkMapFatTree1k is the fattree-1k lane: a full Berkeley mapping of
// the 1004-switch fat-tree. On a fat tree the diameter (6) bounds route
// depth far better than the generic Q+D bound, which is what keeps the
// probe count in the low hundreds of thousands.
func BenchmarkMapFatTree1k(b *testing.B) { benchFatTree1k(b, 1) }

// BenchmarkMapFatTree1kWindow8 is the same map through the window-8 probe
// engine. It is gated relative to the serial lane (bench_gates.json): the
// window buys virtual time, and must not cost more than twice the serial
// loop's wall clock or allocate past it for ~1 % more probes.
func BenchmarkMapFatTree1kWindow8(b *testing.B) { benchFatTree1k(b, 8) }

func benchFatTree1k(b *testing.B, window int) {
	net := fatTree1k()
	h0 := net.Hosts()[0]
	depth := net.Diameter() + 2
	var last *mapper.Map
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := simnet.NewDefault(net)
		m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(depth), mapper.WithPipeline(window))
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.StopTimer()
	reportMap(b, last)
	b.ReportMetric(float64(last.Stats.Pipeline.Submitted), "submitted/op")
}

// BenchmarkIndexBFS1k measures one arena BFS over the 1k fabric's CSR
// index — the inner loop of ChooseRoot, Diameter and the mapper's
// depth selection. ReportAllocs doubles as the zero-alloc gate.
func BenchmarkIndexBFS1k(b *testing.B) {
	net := fatTree1k()
	ix := net.Index()
	dist := make([]int32, ix.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.BFSInto(0, dist)
	}
}

// BenchmarkIndexDiameter1k is the eccentricity sweep on the 1k fabric, one
// search per switch (hosts are leaves), the heaviest pure-graph analysis
// the tools run. Gated at 0 allocs/op.
func BenchmarkIndexDiameter1k(b *testing.B) {
	net := fatTree1k()
	ix := net.Index()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := ix.Diameter(); d != 6 {
			b.Fatalf("diameter %d, want 6", d)
		}
	}
}

// BenchmarkLoadReplay is the traffic lane (WORKLOADS.md): replay a seeded
// uniform plan over UP*/DOWN* routes on a 24-switch fat tree with the flat
// link-reservation engine. ns/op gates the loadsim hot loop against the
// committed baseline; worms/op doubles as a determinism canary — any drift
// in plan materialisation or replay arithmetic moves the count.
func BenchmarkLoadReplay(b *testing.B) {
	benchLoadReplay(b, "fattree2:16x2,8", 0.3, time.Millisecond)
}

// BenchmarkLoadReplayFatTree128 is the same replay on the repo benchmark's
// load-report fabric and load: 128 hosts keep 128 pending injections a few
// µs apart in the scheduler queue, the population the 32-host lane is too
// small to show. The horizon is sized so one op is ~10 ms.
func BenchmarkLoadReplayFatTree128(b *testing.B) {
	benchLoadReplay(b, "fattree2:32x4", 0.4, 2500*time.Microsecond)
}

func benchLoadReplay(b *testing.B, gen string, load float64, duration time.Duration) {
	plan, eng := loadFixture(b, gen, load, duration)
	var rep *loadsim.Report
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = eng.Run(plan)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Sent), "worms/op")
	b.ReportMetric(float64(rep.Delivered), "delivered/op")
}

// BenchmarkLoadReportFatTree128 is the replay part of one sanload report on
// the repo benchmark's load-report fabric and load: the plan merged once
// and replayed on three engines through RunAll, as cmd/sanload replays its
// healthy, stale and healed tables. worms/op is three replays' worth.
func BenchmarkLoadReportFatTree128(b *testing.B) {
	plan, eng := loadFixture(b, "fattree2:32x4", 0.4, 2500*time.Microsecond)
	engines := []*loadsim.Engine{eng, eng.Copy(), eng.Copy()}
	var reps []*loadsim.Report
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps, err = loadsim.RunAll(plan, engines...)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var sent int64
	for _, r := range reps {
		sent += r.Sent
	}
	b.ReportMetric(float64(sent), "worms/op")
}

// loadMix is the seed-1 uniform mix the load lanes draw their plans from.
func loadMix(load float64, duration time.Duration) workload.PlanConfig {
	return workload.PlanConfig{
		Pattern:  workload.Uniform,
		Load:     load,
		MsgBytes: 512,
		Duration: duration,
		ByteTime: simnet.DefaultTiming().ByteTime,
		Seed:     1,
	}
}

// loadFixture builds a fabric, its routes, a loadMix plan and an engine to
// replay it on.
func loadFixture(b *testing.B, gen string, load float64, duration time.Duration) (*workload.Plan, *loadsim.Engine) {
	b.Helper()
	res, err := genspec.Build(gen, nil)
	if err != nil {
		b.Fatal(err)
	}
	net := res.Net
	tab, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	plan := workload.NewPlan(net, loadMix(load, duration))
	eng, err := loadsim.New(net, tab, simnet.DefaultTiming(), plan.MsgBytes)
	if err != nil {
		b.Fatal(err)
	}
	return plan, eng
}

// BenchmarkNewPlan draws the 128-host lanes' plan: every host's stream
// drained to the horizon, blocks of hosts concurrently, each schedule into
// one slice sized up front. Gated on allocs/op alone (5 per host): the
// draw is bound by allocation, and ns/op gates flake with host load.
func BenchmarkNewPlan(b *testing.B) {
	res, err := genspec.Build("fattree2:32x4", nil)
	if err != nil {
		b.Fatal(err)
	}
	mix := loadMix(0.4, 2500*time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += workload.NewPlan(res.Net, mix).TotalSends()
	}
}

// BenchmarkPlanMerge is RunAll's serial front on the same plan: 128
// schedules sorted into one injection order. Gated at 2 allocs/op, the
// order and its sort's scratch.
func BenchmarkPlanMerge(b *testing.B) {
	res, err := genspec.Build("fattree2:32x4", nil)
	if err != nil {
		b.Fatal(err)
	}
	plan := workload.NewPlan(res.Net, loadMix(0.4, 2500*time.Microsecond))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(plan.Merge())
	}
}

// BenchmarkDepthBound measures the Q+D computation (min-cost flows per
// node) on the full system.
func BenchmarkDepthBound(b *testing.B) {
	sys := cluster.CABConfig(nil)
	h0 := sys.Mapper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Net.DepthBound(h0)
	}
}

// fatTree768 is the benchmark's lifecycle-large fabric (fattree2:128x6:
// 128 leaves, 16 spines, 768 hosts) with the daemon's mapper choice.
func fatTree768(b *testing.B) (*topology.Network, topology.NodeID) {
	b.Helper()
	res, err := genspec.Build("fattree2:128x6", nil)
	if err != nil {
		b.Fatal(err)
	}
	return res.Net, res.Net.Hosts()[0]
}

// BenchmarkDepthBoundFatTree768 is the daemon's first start-up layer at
// scale: Q (one two-unit min-cost flow per vertex, 912 of them) plus the
// diameter (one search per switch, 144 of them: a host's eccentricity is
// read off its switch's). Run with -benchmem: Q must stay allocation-flat.
func BenchmarkDepthBoundFatTree768(b *testing.B) {
	net, h0 := fatTree768(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += net.DepthBound(h0)
	}
}

// BenchmarkRoutesComputeFatTree768 is the second: the full §5.5 pipeline
// for 589,056 ordered host pairs, paid on every start, heal and restart.
func BenchmarkRoutesComputeFatTree768(b *testing.B) {
	net, _ := fatTree768(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := routes.Compute(net, routes.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(tab.Labels)
	}
}

// BenchmarkRouteLookup is the serve path's table read. One op is a strided
// walk of 65536 host pairs over the 768-host table, a Route plus a WirePath
// each (long enough that -benchtime 100x times it stably); ns/lookup is the
// per-pair figure. Gated at 0 allocs/op.
func BenchmarkRouteLookup(b *testing.B) {
	net, _ := fatTree768(b)
	tab, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	hosts := net.Hosts()
	const sweep = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := i * sweep; k < (i+1)*sweep; k++ {
			src, dst := hosts[k%len(hosts)], hosts[(k*331+1)%len(hosts)]
			r, _ := tab.Route(src, dst)
			w, _ := tab.WirePath(src, dst)
			benchSink += len(r) + len(w)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sweep), "ns/lookup")
}

// serveBench starts an in-process sanmapd on now-cab (the serve-steady
// fabric), waits for its first snapshot and returns it with one canonical
// route request line per strided host pair.
func serveBench(b *testing.B, listen string) (*mapd.Server, [][]byte) {
	srv, err := mapd.New(mapd.Config{Gen: "now-cab", Seed: 1, StateDir: b.TempDir(), Listen: listen, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()
	b.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			b.Error(err)
		}
	})
	for srv.Snapshot() == nil {
		select {
		case err := <-done:
			b.Fatalf("sanmapd exited before serving: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	fabric := srv.Snapshot().Net
	hosts := fabric.Hosts()
	lines := make([][]byte, 4096)
	for k := range lines {
		from, to := fabric.NameOf(hosts[k%len(hosts)]), fabric.NameOf(hosts[(k*37+1)%len(hosts)])
		lines[k] = []byte(fmt.Sprintf(`{"op":"route","from":%q,"to":%q}`, from, to))
	}
	return srv, lines
}

// BenchmarkServeRoute is what sanmapd does with one route query between the
// read and the write: decode the line, look the pair up, append the reply,
// bump the counters. One op is 4096 queries; ns/query is the per-query
// figure. Gated at 0 allocs/op, which holds on any host at any speed.
func BenchmarkServeRoute(b *testing.B) {
	srv, lines := serveBench(b, "")
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, line := range lines {
			buf, _ = srv.Answer(buf[:0], line)
			benchSink += len(buf)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/query")
}

// BenchmarkServeBatch64 is serve-steady's unit of work through a real unix
// socket: 64 route queries in one write, 64 replies read back, closed loop.
func BenchmarkServeBatch64(b *testing.B) {
	const batch = 64
	sock := filepath.Join(b.TempDir(), "sock")
	_, lines := serveBench(b, "unix:"+sock)
	conn, err := net.Dial("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	batches := make([][]byte, len(lines)/batch)
	for k := range batches {
		batches[k] = append(bytes.Join(lines[k*batch:(k+1)*batch], []byte("\n")), '\n')
	}
	br := bufio.NewReader(conn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < batch; k++ {
			reply, err := br.ReadSlice('\n')
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(reply)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/query")
}

// benchSink keeps measured results live.
var benchSink int

// Wormhole-deadlock demonstration (§5.5's motivation): permutation traffic
// on a torus under hold-and-wait switching, naive vs UP*/DOWN* routes.
func BenchmarkWormholePermutation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := topology.MustTorus(4, 4, 1, rng)
	naive, err := routes.ShortestPaths(net)
	if err != nil {
		b.Fatal(err)
	}
	safe, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	hosts := net.Hosts()
	for _, bc := range []struct {
		name string
		tab  *routes.Table
	}{{"shortest", naive}, {"updown", safe}} {
		b.Run(bc.name, func(b *testing.B) {
			// Precompute every shift's injection list so the timed loop
			// measures the hold-and-wait simulation, not route-table lookups.
			type inj struct {
				src topology.NodeID
				r   simnet.Route
			}
			var shifts [][]inj
			for shift := 1; shift < len(hosts); shift++ {
				var list []inj
				for j, src := range hosts {
					dst := hosts[(j+shift)%len(hosts)]
					if dst == src {
						continue
					}
					r, ok := bc.tab.Route(src, dst)
					if !ok {
						b.Fatalf("no route %v -> %v", src, dst)
					}
					list = append(list, inj{src, r})
				}
				shifts = append(shifts, list)
			}
			b.ResetTimer()
			dead := 0
			for i := 0; i < b.N; i++ {
				dead = 0
				for _, list := range shifts {
					s := wormsim.New(net, simnet.DefaultTiming())
					for _, in := range list {
						if err := s.Inject(0, in.src, in.r); err != nil {
							b.Fatal(err)
						}
					}
					dead += s.Run().Deadlocked
				}
			}
			b.ReportMetric(float64(dead), "deadlocks/op")
		})
	}
}

// §6's hardware thought experiment: self-identifying switches vs the
// anonymous-switch Berkeley algorithm on the same cluster — what anonymity
// costs in probes.
func BenchmarkOracleVsBerkeley(b *testing.B) {
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	depth := sys.Net.DepthBound(h0)
	b.Run("berkeley", func(b *testing.B) {
		var last *mapper.Map
		for i := 0; i < b.N; i++ {
			sn := simnet.NewDefault(sys.Net)
			m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(depth))
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		b.StopTimer()
		reportMap(b, last)
	})
	b.Run("oracle", func(b *testing.B) {
		var last *mapper.Map
		for i := 0; i < b.N; i++ {
			sn := simnet.NewDefault(sys.Net)
			sn.EnableSelfID()
			m, err := mapper.OracleRun(sn.Endpoint(h0), depth)
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		b.StopTimer()
		reportMap(b, last)
	})
}
