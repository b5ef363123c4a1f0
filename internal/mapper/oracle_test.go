package mapper

import (
	"errors"
	"math/rand"
	"testing"

	"sanmap/internal/isomorph"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// oracleNet wraps a network with self-identification enabled.
func oracleNet(net *topology.Network) *simnet.Net {
	sn := simnet.NewDefault(net)
	sn.EnableSelfID()
	return sn
}

// TestOracleMapsExactly: with self-identifying switches the map equals the
// full network (including F — the oracle needs no prune), with the TRUE
// absolute port numbers.
func TestOracleMapsExactly(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := topology.MustRandomConnected(3+rng.Intn(5), 2+rng.Intn(6), rng.Intn(4), rng)
		if seed%2 == 0 {
			topology.WithTail(net, net.Switches()[0], 1, rng)
		}
		h0 := net.Hosts()[0]
		m, err := OracleRun(oracleNet(net).Endpoint(h0), net.DepthBound(h0))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ok, reason := isomorph.Check(m.Network, net); !ok {
			t.Fatalf("seed %d: oracle map != N: %s\nactual: %v\nmapped: %v",
				seed, reason, net, m.Network)
		}
	}
}

// TestOracleFindsPlugsAndLoops.
func TestOracleFindsPlugsAndLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	net := topology.MustLine(3, 2, rng)
	sw := net.Switches()
	if err := net.AddReflector(sw[1], net.FreePort(sw[1])); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := net.ConnectFree(sw[2], sw[2]); err != nil {
		t.Fatal(err)
	}
	h0 := net.Hosts()[0]
	m, err := OracleRun(oracleNet(net).Endpoint(h0), net.DepthBound(h0))
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := isomorph.Check(m.Network, net); !ok {
		t.Fatalf("oracle map != N: %s", reason)
	}
	if got := len(m.Network.Reflectors()); got != 1 {
		t.Errorf("oracle found %d plugs, want 1", got)
	}
}

// TestOracleProbeEconomy quantifies §6's "the exploration process would be
// simpler": the oracle's probe count undercuts the Berkeley algorithm's on
// the same network, because anonymity is what costs probes.
func TestOracleProbeEconomy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := topology.MustRing(6, 2, rng)
	h0 := net.Hosts()[0]
	depth := net.DepthBound(h0)

	berk, err := Run(simnet.NewDefault(net).Endpoint(h0), WithDepth(depth))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := OracleRun(oracleNet(net).Endpoint(h0), depth)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := isomorph.Check(berk.Network, oracle.Network); !ok {
		t.Fatalf("maps differ: %s", reason)
	}
	if oracle.Stats.Probes.TotalProbes() >= berk.Stats.Probes.TotalProbes() {
		t.Errorf("oracle (%d probes) should undercut berkeley (%d)",
			oracle.Stats.Probes.TotalProbes(), berk.Stats.Probes.TotalProbes())
	}
	t.Logf("ring(6): oracle %d probes vs berkeley %d",
		oracle.Stats.Probes.TotalProbes(), berk.Stats.Probes.TotalProbes())
}

// TestOracleRequiresSelfID: the oracle transport must be explicitly
// enabled; default Myrinet has no such mechanism.
func TestOracleRequiresSelfID(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	net := topology.MustLine(2, 1, rng)
	sn := simnet.NewDefault(net)
	if _, err := OracleRun(sn.Endpoint(net.Hosts()[0]), 3); !errors.Is(err, simnet.ErrUnsupported) {
		t.Errorf("OracleRun without EnableSelfID: err = %v, want simnet.ErrUnsupported", err)
	}
}
