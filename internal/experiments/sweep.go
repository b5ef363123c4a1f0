// The parallel sweep runner: every multi-trial experiment (Fig 7's
// per-system repetitions, Fig 9's responder scaling, Fig 10's system table,
// the randomized-trial extension) routes its independent trials through
// Sweep, which runs them on one worker per GOMAXPROCS.
//
// Determinism contract: trials are pure functions of their index (any
// randomness comes from a per-trial seeded RNG), results are collected by
// trial index, and reductions iterate in index order — so the output of a
// parallel sweep is byte-identical to the serial run, at any GOMAXPROCS.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"sanmap/internal/cluster"
	"sanmap/internal/election"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/myricom"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Sweep runs fn for every trial in [0, n) and returns the results indexed
// by trial. At most GOMAXPROCS trials run at once; under GOMAXPROCS 1 they
// run serially on the calling goroutine. Trials must be independent: fn
// must not mutate state shared between trials (shared inputs may be read
// concurrently). On failure the error of the lowest-index failing trial is
// returned — the same error a serial run would stop on — though in
// parallel mode later trials may still have run.
func Sweep[T any](n int, fn func(trial int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---------------------------------------------------------------- Fig 7

// fig7Trial is the measurement of one (system, run) cell.
type fig7Trial struct {
	master    time.Duration
	pipelined time.Duration
	election  time.Duration
	pipeline  simnet.WindowStats
}

// Fig7Sweep measures master-mode and election-mode mapping times over
// `runs` repetitions, varying the random cabling embedding and election
// addresses per run (the real system's variation came from rerunning on
// live hardware). window is the pipelined column's probe window (values
// <= 1 make it degenerate to a serial rerun). The (system × run) trials are
// spread over the sweep's workers: each builds its own system from a
// per-run seed, so trials share nothing; the reduction walks trials in
// index order and the rows are byte-identical at any GOMAXPROCS.
func Fig7Sweep(runs, window int) ([]Fig7Row, error) {
	paper := map[string][2]string{
		"C":     {"248 / 256 / 265", "277 / 278 / 282"},
		"C+A":   {"499 / 522 / 555", "569 / 577 / 587"},
		"C+A+B": {"981 / 1011 / 1208", "1065 / 1298 / 3332"},
	}
	builders := []struct {
		name  string
		build func(*rand.Rand) *cluster.System
	}{
		{"C", cluster.CConfig},
		{"C+A", cluster.CAConfig},
		{"C+A+B", cluster.CABConfig},
	}
	trials, err := Sweep(len(builders)*runs, func(trial int) (fig7Trial, error) {
		bl := builders[trial/runs]
		run := trial % runs
		rng := rand.New(rand.NewSource(int64(run) + 1))
		sys := bl.build(rng)
		net := sys.Net
		h0 := sys.Mapper()
		depth := net.DepthBound(h0)
		var t fig7Trial

		sn := simnet.NewDefault(net)
		m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(depth))
		if err != nil {
			return t, fmt.Errorf("%s master run %d: %w", bl.name, run, err)
		}
		if err := isomorph.MustEqualCore(m.Network, net); err != nil {
			return t, fmt.Errorf("%s master run %d: %w", bl.name, run, err)
		}
		t.master = m.Stats.Elapsed

		snP := simnet.NewDefault(net)
		mp, err := mapper.Run(snP.Endpoint(h0),
			mapper.WithDepth(depth), mapper.WithPipeline(window))
		if err != nil {
			return t, fmt.Errorf("%s pipelined run %d: %w", bl.name, run, err)
		}
		if err := isomorph.MustEqualCore(mp.Network, net); err != nil {
			return t, fmt.Errorf("%s pipelined run %d: %w", bl.name, run, err)
		}
		t.pipelined = mp.Stats.Elapsed
		t.pipeline = mp.Stats.Pipeline

		res, err := election.Run(net, election.Config{
			Model:  simnet.CircuitModel,
			Timing: simnet.DefaultTiming(),
			Mapper: mapper.DefaultConfig(depth),
			Rng:    rand.New(rand.NewSource(int64(run)*7919 + 17)),
		})
		if err != nil {
			return t, fmt.Errorf("%s election run %d: %w", bl.name, run, err)
		}
		if err := isomorph.MustEqualCore(res.Map.Network, net); err != nil {
			return t, fmt.Errorf("%s election run %d: %w", bl.name, run, err)
		}
		t.election = res.Elapsed
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Fig7Row
	for bi, bl := range builders {
		row := Fig7Row{System: bl.name,
			PaperMaster: paper[bl.name][0], PaperElection: paper[bl.name][1]}
		for run := 0; run < runs; run++ {
			t := trials[bi*runs+run]
			row.Master.Add(t.master)
			row.Pipelined.Add(t.pipelined)
			row.Pipeline = t.pipeline
			row.Election.Add(t.election)
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------- Fig 9

// Fig9Sweep sweeps the number of hosts running (responding) mappers from 1
// to the full system, in subcluster order and in random order, on the
// C+A+B system. The mapper host always responds; step is the sweep
// granularity and depth the probe depth (0 = the proven Q+D bound; the
// paper does not state its own, and EXPERIMENTS.md discusses the
// sensitivity). The system, host orders and sampled k values are fixed up
// front and each trial builds its own transport over the shared read-only
// topology, so the curves are byte-identical at any GOMAXPROCS.
func Fig9Sweep(step int, seed int64, depth int) (ordered, random []Fig9Point, err error) {
	if step < 1 {
		step = 1
	}
	sys := cluster.CABConfig(nil)
	net := sys.Net
	h0 := sys.Mapper()
	if depth == 0 {
		depth = net.DepthBound(h0)
	}
	var hosts []topology.NodeID
	for _, h := range net.Hosts() {
		if h != h0 {
			hosts = append(hosts, h)
		}
	}
	// Ordered: hosts come out of the builder in subcluster order (C, A, B),
	// matching "additional mappers were run in order of increasing node
	// number ... filling out each subcluster completely".
	shuffled := append([]topology.NodeID(nil), hosts...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	// Sample k = 1, 1+step, ... and always include the full-system point
	// (every host responding).
	total := len(hosts) + 1
	var ks []int
	for k := 1; k <= total; k += step {
		ks = append(ks, k)
	}
	if ks[len(ks)-1] != total {
		ks = append(ks, total)
	}
	// Trials [0, len(ks)) walk the ordered curve, the rest the random one.
	pts, err := Sweep(2*len(ks), func(trial int) (Fig9Point, error) {
		order := hosts
		if trial >= len(ks) {
			order = shuffled
		}
		k := ks[trial%len(ks)]
		sn := simnet.NewDefault(net)
		responding := map[topology.NodeID]bool{h0: true}
		for i := 0; i < k-1 && i < len(order); i++ {
			responding[order[i]] = true
		}
		for _, h := range net.Hosts() {
			if !responding[h] {
				sn.SetResponder(h, false)
			}
		}
		m, err := mapper.Run(sn.Endpoint(h0),
			mapper.WithDepth(depth), mapper.WithMaxVertices(1<<21))
		if err != nil {
			return Fig9Point{}, fmt.Errorf("k=%d: %w", k, err)
		}
		return Fig9Point{Responders: k, Time: m.Stats.Elapsed,
			Probes: m.Stats.Probes.TotalProbes()}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return pts[:len(ks)], pts[len(ks):], nil
}

// --------------------------------------------------------------- Fig 10

// Fig10Sweep runs the Myricom algorithm on the three systems (packet
// collision model — the regime the firmware mapper is designed for) and
// the Berkeley algorithm for the ratio comparisons of §5.4, one trial per
// system. Each trial rebuilds its own system, so the three mappings run
// concurrently without sharing.
func Fig10Sweep() ([]Fig10Row, error) {
	names := []string{"C", "C+A", "C+A+B"}
	return Sweep(len(names), func(trial int) (Fig10Row, error) {
		ns := Systems(0)[trial]
		net := ns.Sys.Net
		h0 := ns.Sys.Mapper()
		depth := net.DepthBound(h0)

		snM := simnet.New(net, simnet.PacketModel, simnet.DefaultTiming())
		my, err := myricom.Run(snM.Endpoint(h0), myricom.DefaultConfig(depth))
		if err != nil {
			return Fig10Row{}, fmt.Errorf("%s myricom: %w", ns.Name, err)
		}
		if err := isomorph.MustEqualCore(my.Network, net); err != nil {
			return Fig10Row{}, fmt.Errorf("%s myricom map: %w", ns.Name, err)
		}
		snB := simnet.NewDefault(net)
		berk, err := mapper.Run(snB.Endpoint(h0), mapper.WithDepth(depth))
		if err != nil {
			return Fig10Row{}, fmt.Errorf("%s berkeley: %w", ns.Name, err)
		}
		return Fig10Row{
			System:   ns.Name,
			Stats:    my.Stats,
			Berkeley: berk.Stats.Probes.TotalProbes(),
			BerkTime: berk.Stats.Elapsed,
			Paper:    fig10Paper[ns.Name],
		}, nil
	})
}

// ---------------------------------------------------- randomized trials

// RandomizedTrial is one run of the §6 coupon-collector hybrid mapper.
type RandomizedTrial struct {
	Probes  int64
	SimTime time.Duration
}

// RandomizedTrials runs independent randomized-hybrid mappings of a
// hypercube (the extension benchmark's expander-ish topology), each with
// its own seed-derived RNG, through the sweep runner. Trial i uses seed
// seed+i, so results are reproducible and independent of GOMAXPROCS.
func RandomizedTrials(trials, couponProbes int, seed int64) ([]RandomizedTrial, error) {
	net := topology.MustHypercube(4, 1, rand.New(rand.NewSource(seed)))
	h0 := net.Hosts()[0]
	depth := net.DepthBound(h0)
	return Sweep(trials, func(trial int) (RandomizedTrial, error) {
		sn := simnet.NewDefault(net)
		m, err := mapper.RandomizedRun(sn.Endpoint(h0), mapper.RandomizedConfig{
			Config:       mapper.DefaultConfig(depth),
			CouponProbes: couponProbes,
			Rng:          rand.New(rand.NewSource(seed + int64(trial))),
		})
		if err != nil {
			return RandomizedTrial{}, fmt.Errorf("trial %d: %w", trial, err)
		}
		if err := isomorph.MustEqualCore(m.Network, net); err != nil {
			return RandomizedTrial{}, fmt.Errorf("trial %d: %w", trial, err)
		}
		return RandomizedTrial{Probes: m.Stats.Probes.TotalProbes(),
			SimTime: m.Stats.Elapsed}, nil
	})
}

// HostQRow is the probe bound seen from one candidate mapper host.
type HostQRow struct {
	Host string
	Q    int
}

// HostQTable computes Q(h) for every host of net — the per-candidate probe
// bound a deployment would consult to place the master mapper — with one
// trial per host. The topology is only read, so trials parallelise freely;
// rows come back in host order at any GOMAXPROCS.
func HostQTable(net *topology.Network) ([]HostQRow, error) {
	hosts := net.Hosts()
	return Sweep(len(hosts), func(trial int) (HostQRow, error) {
		h := hosts[trial]
		q, _ := net.Q(h)
		return HostQRow{Host: net.NameOf(h), Q: q}, nil
	})
}
