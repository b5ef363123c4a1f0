package mapper

import (
	"errors"
	"math/rand"
	"testing"

	"sanmap/internal/isomorph"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// TestSentinelErrors: the typed sentinels classify configuration and probe
// failures through their wrapped chains, assertable with errors.Is.
func TestSentinelErrors(t *testing.T) {
	n := &topology.Network{}
	s0 := n.AddSwitch("s0")
	s1 := n.AddSwitch("s1")
	h0 := n.AddHost("h0")
	h1 := n.AddHost("h1")
	n.MustConnect(h0, 0, s0, 2)
	n.MustConnect(s0, 5, s1, 3)
	n.MustConnect(s1, 6, h1, 0)
	sn := simnet.NewDefault(n)
	ep := sn.Endpoint(h0)

	if _, err := Run(ep); !errors.Is(err, ErrDepthExceeded) {
		t.Errorf("Run without WithDepth: err = %v, want ErrDepthExceeded", err)
	}

	do := func(p simnet.Probe) simnet.ProbeResult { return simnet.Do(ep, p) }
	if r := do(simnet.Probe{Kind: simnet.ProbeHost, Route: simnet.Route{1}}); !errors.Is(r.Err, simnet.ErrTimeout) {
		t.Errorf("dead-end probe: err = %v, want simnet.ErrTimeout", r.Err)
	}
	sn.SetResponder(h1, false)
	if r := do(simnet.Probe{Kind: simnet.ProbeHost, Route: simnet.Route{3, 3}}); !errors.Is(r.Err, simnet.ErrNoResponder) {
		t.Errorf("silent host: err = %v, want simnet.ErrNoResponder", r.Err)
	}
}

// TestMapMoreTopologyFamilies extends the Theorem 1 property test to the
// classic interconnects the paper's introduction contrasts SANs with.
func TestMapMoreTopologyFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nets := []struct {
		name string
		net  *topology.Network
	}{
		{"mesh", topology.MustMesh(3, 3, 2, rng)},
		{"torus", topology.MustTorus(3, 3, 2, rng)},
		{"hypercube", topology.MustHypercube(3, 2, rng)},
		{"line-long", topology.MustLine(7, 1, rng)},
	}
	for _, tc := range nets {
		net := tc.net
		t.Run(tc.name, func(t *testing.T) {
			mapAndVerify(t, net, simnet.CircuitModel, nil)
		})
	}
}

// TestMapWithFlakyResponses: dropped probe responses must never corrupt the
// map — the deductions are conservative (a lost response is a lost edge,
// not a wrong one), so the result is a subgraph-shaped map and the run
// never reports contradictory merges.
func TestMapWithFlakyResponses(t *testing.T) {
	for _, rate := range []float64{0.05, 0.2, 0.5} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			net := topology.MustRandomConnected(4, 6, 2, rng)
			h0 := net.Hosts()[0]
			sn := simnet.NewDefault(net)
			fp := &simnet.FlakyProber{
				Prober:   sn.Endpoint(h0),
				DropRate: rate,
				Rng:      rand.New(rand.NewSource(seed + 99)),
			}
			m, err := Run(fp, WithDepth(net.DepthBound(h0)))
			if err != nil {
				// An export failure would indicate a corrupted model; a
				// clean error is acceptable only for vertex-budget aborts,
				// which cannot happen at this scale.
				t.Fatalf("rate %.2f seed %d: %v", rate, seed, err)
			}
			if err := m.Network.Validate(); err != nil {
				t.Fatalf("rate %.2f seed %d: invalid map: %v", rate, seed, err)
			}
			if m.Stats.Inconsistent != 0 {
				t.Errorf("rate %.2f seed %d: %d contradictory deductions from conservative losses",
					rate, seed, m.Stats.Inconsistent)
			}
			// Whatever was mapped must be consistent with the actual
			// network: every mapped host exists, counts never exceed the
			// combinatorial bound of the real network... at minimum the
			// host set is a subset.
			for _, name := range m.Network.SortedHostNames() {
				if net.Lookup(name) == topology.None {
					t.Errorf("rate %.2f seed %d: phantom host %q", rate, seed, name)
				}
			}
			if fp.Dropped == 0 && rate >= 0.5 {
				t.Errorf("rate %.2f seed %d: flaky prober dropped nothing", rate, seed)
			}
		}
	}
}

// TestMapZeroDropIsExact: a FlakyProber with rate 0 changes nothing.
func TestMapZeroDropIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	net := topology.MustStar(3, 3, rng)
	h0 := net.Hosts()[0]
	sn := simnet.NewDefault(net)
	fp := &simnet.FlakyProber{Prober: sn.Endpoint(h0), DropRate: 0, Rng: rng}
	m, err := Run(fp, WithDepth(net.DepthBound(h0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := isomorph.MustEqualCore(m.Network, net); err != nil {
		t.Fatal(err)
	}
}

// TestCancelAborts: the election passivation hook stops a run cleanly.
func TestCancelAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	net := topology.MustStar(4, 3, rng)
	h0 := net.Hosts()[0]
	sn := simnet.NewDefault(net)
	calls := 0
	cancel := func() bool {
		calls++
		return calls > 3
	}
	if _, err := Run(sn.Endpoint(h0), WithDepth(net.DepthBound(h0)), func(c *Config) { c.Cancel = cancel }); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestDeterminism: two identical runs produce identical probe counts and
// isomorphic maps (the simulator and mapper are fully deterministic).
func TestDeterminism(t *testing.T) {
	build := func() *Map {
		rng := rand.New(rand.NewSource(55))
		net := topology.MustRandomConnected(5, 7, 3, rng)
		h0 := net.Hosts()[0]
		sn := simnet.NewDefault(net)
		m, err := Run(sn.Endpoint(h0), WithDepth(net.DepthBound(h0)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(), build()
	if a.Stats.Probes != b.Stats.Probes {
		t.Errorf("probe stats differ: %+v vs %+v", a.Stats.Probes, b.Stats.Probes)
	}
	if a.Stats.Elapsed != b.Stats.Elapsed {
		t.Errorf("elapsed differ: %v vs %v", a.Stats.Elapsed, b.Stats.Elapsed)
	}
	if ok, reason := isomorph.Check(a.Network, b.Network); !ok {
		t.Errorf("maps differ: %s", reason)
	}
}

// TestSwitchFirstProbeOrder: the alternative probe-pair order produces the
// same map with a different probe mix (more switch probes, fewer host
// probes).
func TestSwitchFirstProbeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	net := topology.MustRandomConnected(5, 7, 2, rng)
	run := func(order ProbeOrder) *Map {
		sn := simnet.NewDefault(net)
		m, err := Run(sn.Endpoint(net.Hosts()[0]),
			WithDepth(net.DepthBound(net.Hosts()[0])), func(c *Config) { c.ProbeOrder = order })
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	hf, sf := run(HostFirst), run(SwitchFirst)
	if ok, reason := isomorph.Check(hf.Network, sf.Network); !ok {
		t.Fatalf("probe order changed the map: %s", reason)
	}
	if sf.Stats.Probes.SwitchProbes <= hf.Stats.Probes.SwitchProbes {
		t.Errorf("switch-first should send more switch probes: %+v vs %+v",
			sf.Stats.Probes, hf.Stats.Probes)
	}
}

// TestNaiveScanSameMap: disabling the §3.3 heuristics costs probes, never
// correctness.
func TestNaiveScanSameMap(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	net := topology.MustRandomConnected(4, 6, 2, rng)
	h0 := net.Hosts()[0]
	base := mapAndVerify(t, net, simnet.CircuitModel, nil)
	naive := mapAndVerify(t, net, simnet.CircuitModel, func(c *Config) {
		c.TurnOrder = NaiveScan
		c.EliminateProbes = false
	})
	if ok, reason := isomorph.Check(base.Network, naive.Network); !ok {
		t.Fatalf("heuristics changed the map: %s", reason)
	}
	if naive.Stats.Probes.TotalProbes() < base.Stats.Probes.TotalProbes() {
		t.Errorf("naive scan should not be cheaper: %d vs %d",
			naive.Stats.Probes.TotalProbes(), base.Stats.Probes.TotalProbes())
	}
	_ = h0
}
