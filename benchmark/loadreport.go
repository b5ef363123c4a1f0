package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"syscall"
	"time"

	"sanmap/internal/faults"
	"sanmap/internal/genspec"
	"sanmap/internal/loadsim"
	"sanmap/internal/mapper"
	"sanmap/internal/place"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

// sanload's defaults that the replica must repeat.
const (
	loadFraction = 0.4
	loadMsgBytes = 512
	loadCuts     = 2
	loadPlace    = 8
)

// report is one sanload run.
type report struct {
	seconds float64 // at reference speed once loadReport has scaled it (calib.go)
	rssMB   float64
	stdout  []byte
}

func (b *bench) sanload(t *track, n int) (*report, error) {
	cmd := exec.CommandContext(b.ctx, binDir+"/sanload",
		"-gen", b.sz.loadGen, "-pattern", "uniform", "-load", fmt.Sprint(loadFraction),
		"-duration", b.sz.loadDuration, "-seed", strconv.FormatInt(b.opt.seed, 10))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	t.begin("e2e.report", int64(n))
	out, err := cmd.Output()
	t.end()
	rep := &report{seconds: time.Since(start).Seconds(), stdout: out}
	b.attempt(1)
	if err != nil {
		b.fail("sanload run %d: %v: %s", n, err, firstLine(stderr.String()))
		return rep, nil
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return rep, nil
}

var (
	healthyRE = regexp.MustCompile(`(?s)== healthy routes ==\nworms sent=(\d+) delivered=(\d+) .*?latency .*? p99=(\S+) `)
	replaysRE = regexp.MustCompile(`(?m)^deadlock-free=(true|false)`)
)

// loadReport is one sanload report per repetition.
func (b *bench) loadReport() error {
	if err := b.setup(func() error { return nil }); err != nil {
		return err
	}
	tk := b.tr.newTrack()
	var first []byte
	// The in-process replica costs about one more report of a traced run.
	plain, traced, err := repeat(b, tk, 0.5, func(n int, t *track) (rep *report, err error) {
		speed, err := b.spd.around(func() (err error) {
			rep, err = b.sanload(t, n)
			return
		})
		if err != nil {
			return nil, err
		}
		rep.seconds *= speed
		// All phases are deterministic: the same flags print the same bytes.
		b.attempt(1)
		if first == nil {
			first = rep.stdout
		} else if !bytes.Equal(first, rep.stdout) {
			b.fail("sanload run %d: stdout differs from run 0's", n)
		}
		return rep, nil
	})
	if err != nil {
		return err
	}

	b.attempt(1)
	m := healthyRE.FindSubmatch(first)
	verdicts := replaysRE.FindAllSubmatch(first, -1)
	if m == nil || len(verdicts) != 3 {
		b.fail("sanload report has no healthy section or not three replays: %s", firstLine(string(first)))
		return nil
	}
	for _, v := range verdicts {
		if string(v[1]) != "true" {
			b.fail("sanload reports a replay that is not deadlock-free")
		}
	}
	sent, _ := strconv.ParseFloat(string(m[1]), 64)
	delivered, _ := strconv.ParseFloat(string(m[2]), 64)
	p99, err := time.ParseDuration(string(m[3]))
	if err != nil || sent == 0 {
		b.fail("sanload healthy section unreadable: %q", m[0])
		return nil
	}

	var secs, rss []float64
	for _, rep := range plain {
		secs, rss = append(secs, rep.seconds), append(rss, rep.rssMB)
	}
	b.named("report_s", secs...)
	b.named("sim_delivered_ppm", float64(int64(delivered*1e6/sent)))
	b.named("sim_p99_latency_ns", float64(p99))
	b.e2e("latency_ms", scale(secs, 1e3)...)
	b.e2e("tail_ms", upperQuartile(secs)*1e3)
	b.e2e("throughput", scaleInv(secs, 3*sent)...) // worms replayed per host second, three replays a report
	if b.tr == nil {
		return nil
	}

	var tsecs []float64
	for _, rep := range traced {
		tsecs = append(tsecs, rep.seconds)
	}
	b.layer("trace.overhead_pct", 100*(medianOf(tsecs)-medianOf(secs))/medianOf(secs))
	b.layer("proc.peak_rss_mb", rss...)
	return b.loadLayers(tk, medianOf(secs)*1e3)
}

// loadLayers performs sanload's job in-process, in cmd/sanload/main.go's
// order, with a span around each exported call. Report formatting and
// process start are what it cannot reach; they show as the gap to report_s.
func (b *bench) loadLayers(t *track, reportMs float64) error {
	seed := uint64(b.opt.seed)
	dur, err := time.ParseDuration(b.sz.loadDuration)
	if err != nil {
		return err
	}
	// do runs one step inside its span; after a failure the rest are skipped.
	do := func(name string, f func() error) {
		if err != nil {
			return
		}
		t.begin(name, 0)
		if e := f(); e != nil {
			err = fmt.Errorf("%s: %w", name, e)
		}
		t.end()
	}
	timing := simnet.DefaultTiming()
	var (
		net            *topology.Network
		tab, healed    *routes.Table
		plan           *workload.Plan
		eng, eng2      *loadsim.Engine
		sess           *mapper.Session
		sched          faults.Schedule
		placed         *place.Result
		depth          int
		worms, blocked float64
		deadlockFree   = true
	)
	compute := func(dst **routes.Table) func() error {
		return func() (e error) { *dst, e = routes.Compute(net, routes.DefaultConfig()); return }
	}
	replay := func(e **loadsim.Engine) func() error {
		return func() error {
			rep, err := (*e).Run(plan)
			if err == nil {
				worms, blocked = worms+float64(rep.Sent), blocked+float64(rep.Blocked)
				deadlockFree = deadlockFree && rep.DeadlockFree
			}
			return err
		}
	}

	start := time.Now()
	t.begin("replay.report", 0)
	do("topology.build", func() error {
		res, e := genspec.Build(b.sz.loadGen, nil)
		net = res.Net
		return e
	})
	do("routes.compute", compute(&tab))
	do("workload.newplan", func() error {
		plan = workload.NewPlan(net, workload.PlanConfig{
			Pattern: workload.Uniform, Load: loadFraction, MsgBytes: loadMsgBytes,
			Duration: dur, ByteTime: timing.ByteTime, Seed: seed,
		})
		return nil
	})
	do("loadsim.new", func() (e error) { eng, e = loadsim.New(net, tab, timing, loadMsgBytes); return })
	do("loadsim.run", replay(&eng))
	// healSweep: map, cut, replay on the stale table, heal, replay again.
	var h0 topology.NodeID
	var sn *simnet.Net
	do("topology.depthbound", func() error {
		h0 = net.Hosts()[0]
		depth = net.DepthBound(h0) + net.NumSwitches()
		return nil
	})
	do("mapper.map", func() (e error) {
		sn = simnet.NewDefault(net)
		if sess, e = mapper.NewSession(sn.Endpoint(h0), mapper.WithDepth(depth), mapper.WithConfirm(2)); e == nil {
			_, e = sess.Map()
		}
		return
	})
	do("faults.generate", func() error {
		sched = faults.Generate(net, seed, faults.Profile{Cuts: loadCuts, Protect: h0})
		return nil
	})
	do("faults.apply", func() error { faults.NewInjector(sn, sched).ApplyAll(); return nil })
	do("loadsim.run", func() error { eng.Revalidate(); return replay(&eng)() })
	do("mapper.remap", func() error { _, e := sess.Remap(); return e })
	do("routes.compute", compute(&healed))
	do("loadsim.new", func() (e error) { eng2, e = loadsim.New(net, healed, timing, loadMsgBytes); return })
	do("loadsim.run", replay(&eng2))
	// placement: the heaviest tasks of the measured demand matrix.
	do("routes.compute", compute(&healed))
	do("place.optimize", func() (e error) {
		placed, e = place.Optimize(healed, heaviest(eng.Matrix(), loadPlace), place.DefaultConfig())
		return
	})
	t.end()
	total := sinceMs(start)
	if err != nil {
		return err
	}

	b.attempt(1)
	if !deadlockFree {
		b.fail("replica replay is not deadlock-free")
	}
	self := b.selfMs()
	root := self["replay.report"]
	b.layer("trace.coverage", (b.ref(total)[0]-root[len(root)-1])/reportMs)
	b.spanLayers("topology.build", "topology.depthbound", "routes.compute", "workload.newplan",
		"loadsim.new", "loadsim.run", "mapper.map", "mapper.remap",
		"faults.generate", "faults.apply", "place.optimize")
	b.layer("workload.sends", float64(plan.TotalSends()))
	b.layer("loadsim.worms", worms)
	b.layer("loadsim.blocked", blocked)
	b.layer("loadsim.ns_per_worm", sum(self["loadsim.run"])*1e6/worms)
	b.layer("place.expanded", float64(placed.Expanded))
	return nil
}

// heaviest restricts a demand matrix to its n highest-volume tasks, as
// cmd/sanload does before placement (ties: host order; rows stay in host
// order).
func heaviest(m *workload.Matrix, n int) *workload.Matrix {
	order := make([]int, len(m.Hosts))
	vol := make([]int64, len(m.Hosts))
	for i := range m.Hosts {
		order[i] = i
		for j := range m.Hosts {
			vol[i] += m.Bytes[i][j] + m.Bytes[j][i]
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return vol[order[a]] > vol[order[b]] })
	var keep []int
	for _, i := range order[:min(n, len(order))] {
		if vol[i] > 0 {
			keep = append(keep, i)
		}
	}
	sort.Ints(keep)
	hosts := make([]topology.NodeID, len(keep))
	for k, i := range keep {
		hosts[k] = m.Hosts[i]
	}
	sub := workload.NewMatrix(hosts)
	for a, i := range keep {
		for c, j := range keep {
			sub.Bytes[a][c] = m.Bytes[i][j]
		}
	}
	return sub
}
