package myricom

import (
	"bytes"
	"math/rand"
	"testing"

	"sanmap/internal/cluster"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// runOn maps net from its first host (or the given one) under the packet
// model — the regime §4's algorithm is designed for.
func runOn(t *testing.T, net *topology.Network, h0 topology.NodeID, model simnet.Model) *Map {
	t.Helper()
	sn := simnet.New(net, model, simnet.DefaultTiming())
	m, err := Run(sn.Endpoint(h0), DefaultConfig(net.DepthBound(h0)))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := m.Network.Validate(); err != nil {
		t.Fatalf("invalid map: %v", err)
	}
	return m
}

func TestMyricomBasicTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nets := map[string]*topology.Network{
		"line": topology.MustLine(4, 2, rng),
		"star": topology.MustStar(4, 3, rng),
		"ring": topology.MustRing(5, 2, rng),
	}
	for name, net := range nets {
		net := net
		t.Run(name, func(t *testing.T) {
			m := runOn(t, net, net.Hosts()[0], simnet.PacketModel)
			if err := isomorph.MustEqualCore(m.Network, net); err != nil {
				t.Fatalf("%v\nactual: %v\nmapped: %v", err, net, m.Network)
			}
		})
	}
}

func TestMyricomClusterC(t *testing.T) {
	sys := cluster.CConfig(nil)
	m := runOn(t, sys.Net, sys.Mapper(), simnet.PacketModel)
	if err := isomorph.MustEqualCore(m.Network, sys.Net); err != nil {
		t.Fatalf("%v\nactual: %v\nmapped: %v", err, sys.Net, m.Network)
	}
	// Fig 10 shape: comparisons dominate the message budget.
	s := m.Stats
	if s.Compare < s.Loop || s.Compare < s.Switch {
		t.Errorf("expected comparison probes to dominate: %+v", s)
	}
}

// TestMyricomExportDeterministic: two runs on now-c seed 1 must export the
// same network byte for byte — same NodeIDs, same Write line order — not
// merely isomorphic ones. export once ranged over its per-switch port maps,
// so host insertion order followed Go's map iteration.
func TestMyricomExportDeterministic(t *testing.T) {
	write := func() []byte {
		sys := cluster.CConfig(rand.New(rand.NewSource(1)))
		m := runOn(t, sys.Net, sys.Mapper(), simnet.PacketModel)
		var buf bytes.Buffer
		if err := m.Network.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := write(), write(); !bytes.Equal(a, b) {
		t.Errorf("two runs exported different files:\n%s--- vs ---\n%s", a, b)
	}
}

// TestMyricomLoopbackPlugs: the loop-probe machinery must find loopback
// plugs and place them in the map.
func TestMyricomLoopbackPlugs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := topology.MustLine(3, 2, rng)
	sw := net.Switches()
	if err := net.AddReflector(sw[1], net.FreePort(sw[1])); err != nil {
		t.Fatal(err)
	}
	m := runOn(t, net, net.Hosts()[0], simnet.PacketModel)
	if len(m.Reflectors) != 1 {
		t.Fatalf("found %d reflectors, want 1 (map %v)", len(m.Reflectors), m.Network)
	}
	if got := len(m.Network.Reflectors()); got != 1 {
		t.Errorf("map carries %d reflectors, want 1", got)
	}
}

// TestMyricomVsBerkeleyMessages reproduces the core Fig 10 comparison: on
// the same cluster configuration, the Myricom algorithm sends several times
// the messages of the Berkeley algorithm.
func TestMyricomVsBerkeleyMessages(t *testing.T) {
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	depth := sys.Net.DepthBound(h0)

	snB := simnet.NewDefault(sys.Net)
	berk, err := mapper.Run(snB.Endpoint(h0), mapper.WithDepth(depth))
	if err != nil {
		t.Fatalf("berkeley: %v", err)
	}
	snM := simnet.New(sys.Net, simnet.PacketModel, simnet.DefaultTiming())
	myri, err := Run(snM.Endpoint(h0), DefaultConfig(depth))
	if err != nil {
		t.Fatalf("myricom: %v", err)
	}
	bTotal := berk.Stats.Probes.TotalProbes()
	mTotal := myri.Stats.Total()
	if mTotal <= bTotal {
		t.Errorf("expected Myricom to send more messages: myricom=%d berkeley=%d", mTotal, bTotal)
	}
	ratio := float64(mTotal) / float64(bTotal)
	if ratio < 1.5 || ratio > 20 {
		t.Errorf("message ratio %.1f outside plausible band (paper: 3.2)", ratio)
	}
	t.Logf("C: myricom=%d berkeley=%d ratio=%.1f (paper: 1449/450=3.2)", mTotal, bTotal, ratio)
	t.Logf("myricom categories: loop=%d host=%d sw=%d comp=%d",
		myri.Stats.Loop, myri.Stats.Host, myri.Stats.Switch, myri.Stats.Compare)
}

// TestMyricomSelfLoopCable: a two-port cable on one switch is discovered as
// a candidate that comparison probes resolve to the same switch.
func TestMyricomSelfLoopCable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := topology.MustLine(3, 2, rng)
	sw := net.Switches()
	if _, _, _, err := net.ConnectFree(sw[1], sw[1]); err != nil {
		t.Fatal(err)
	}
	m := runOn(t, net, net.Hosts()[0], simnet.PacketModel)
	if err := isomorph.MustEqualCore(m.Network, net); err != nil {
		t.Fatalf("%v\nactual: %v\nmapped: %v", err, net, m.Network)
	}
}

// TestMyricomAllCollisionModels: on the leveled NOW fat tree the algorithm
// maps correctly under every worm semantics — comparison probes retrace
// explored routes in reverse, which even the circuit model permits (only
// same-direction reuse blocks).
func TestMyricomAllCollisionModels(t *testing.T) {
	sys := cluster.CConfig(nil)
	for name, model := range map[string]simnet.Model{
		"packet":     simnet.PacketModel,
		"cutthrough": simnet.CutThroughModel,
		"circuit":    simnet.CircuitModel,
	} {
		m := runOn(t, sys.Net, sys.Mapper(), model)
		if err := isomorph.MustEqualCore(m.Network, sys.Net); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestMyricomMapsF: the Myricom algorithm has no prune stage, so it maps
// hostless switch-bridge regions (F) that Theorem 1 excludes from the
// Berkeley algorithm's output — its map is isomorphic to all of N, a
// genuine behavioural difference between the two mappers.
func TestMyricomMapsF(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net := topology.MustStar(3, 2, rng)
	topology.WithTail(net, net.Switches()[1], 2, rng)
	if len(net.F()) != 2 {
		t.Fatalf("|F| = %d, want 2", len(net.F()))
	}
	m := runOn(t, net, net.Hosts()[0], simnet.PacketModel)
	// Isomorphic to the FULL network, including the tail.
	if ok, reason := isomorph.Check(m.Network, net); !ok {
		t.Fatalf("myricom map should include F: %s\nactual: %v\nmapped: %v",
			reason, net, m.Network)
	}
	// ...whereas the core comparison (what Berkeley produces) must differ.
	core, _ := net.Core()
	if ok, _ := isomorph.Check(m.Network, core); ok {
		t.Fatal("myricom map unexpectedly equals the pruned core")
	}
}
