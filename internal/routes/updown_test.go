package routes

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sanmap/internal/cluster"
	"sanmap/internal/genspec"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// computeOn builds a default-config table over net, failing the test on
// any error.
func computeOn(t *testing.T, net *topology.Network, cfg Config) *Table {
	t.Helper()
	tab, err := Compute(net, cfg)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	return tab
}

// verifyAll runs the three §5.5 checks.
func verifyAll(t *testing.T, tab *Table) {
	t.Helper()
	if err := tab.VerifyUpDown(); err != nil {
		t.Errorf("up/down violation: %v", err)
	}
	if err := tab.VerifyDeadlockFree(); err != nil {
		t.Errorf("deadlock: %v", err)
	}
	if err := tab.VerifyDelivery(tab.Net); err != nil {
		t.Errorf("delivery: %v", err)
	}
}

func TestRoutesGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nets := map[string]*topology.Network{
		"line":      topology.MustLine(4, 2, rng),
		"ring":      topology.MustRing(5, 2, rng),
		"star":      topology.MustStar(4, 3, rng),
		"mesh":      topology.MustMesh(3, 3, 2, rng),
		"torus":     topology.MustTorus(3, 3, 2, rng),
		"hypercube": topology.MustHypercube(3, 2, rng),
	}
	for name, net := range nets {
		net := net
		t.Run(name, func(t *testing.T) {
			tab := computeOn(t, net, DefaultConfig())
			verifyAll(t, tab)
			// Every ordered host pair must have a route.
			hosts := net.Hosts()
			for _, s := range hosts {
				for _, d := range hosts {
					if s == d {
						continue
					}
					if _, ok := tab.Route(s, d); !ok {
						t.Fatalf("missing route %s -> %s", net.NameOf(s), net.NameOf(d))
					}
				}
			}
		})
	}
}

func TestRoutesRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := topology.MustRandomConnected(3+rng.Intn(6), 2+rng.Intn(10), rng.Intn(4), rng)
		tab := computeOn(t, net, DefaultConfig())
		verifyAll(t, tab)
	}
}

// TestRoutesOnMappedNetwork is the paper's full §5.5 flow: map the C
// subcluster with the Berkeley algorithm, compute UP*/DOWN* routes on the
// *map*, then verify delivery and deadlock freedom.
func TestRoutesOnMappedNetwork(t *testing.T) {
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	sn := simnet.NewDefault(sys.Net)
	m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(sys.Net.DepthBound(h0)))
	if err != nil {
		t.Fatalf("mapping: %v", err)
	}
	cfg := DefaultConfig()
	cfg.IgnoreHosts = []topology.NodeID{m.Network.Lookup(sys.Net.NameOf(sys.Utility))}
	tab := computeOn(t, m.Network, cfg)
	verifyAll(t, tab)
	if n := len(tab.Distribute()); n != m.Network.NumHosts() {
		t.Errorf("distributed %d host tables, want %d", n, m.Network.NumHosts())
	}
}

// TestChooseRootFarFromHosts: on a fat tree the root switch must be at the
// top level (maximally distant from hosts), and the utility host must be
// ignorable.
func TestChooseRootFarFromHosts(t *testing.T) {
	sys := cluster.CConfig(nil)
	net := sys.Net
	root := ChooseRoot(net, sys.Utility)
	if root == topology.None {
		t.Fatal("no root chosen")
	}
	dist := net.BFS(root)
	minD := 1 << 30
	for _, h := range net.Hosts() {
		if h == sys.Utility {
			continue
		}
		if dist[h] < minD {
			minD = dist[h]
		}
	}
	if minD < 3 {
		t.Errorf("root only %d hops from nearest host; expected a top-level switch", minD)
	}
	// Ignoring the utility host "picks a natural root of the network": the
	// top-level switch the utility machine is cabled to.
	usw, _, _ := net.HostSwitch(sys.Utility)
	if root != usw {
		t.Errorf("chose root %s, want the utility machine's switch %s",
			net.NameOf(root), net.NameOf(usw))
	}
	// Without ignoring it, that switch is disqualified (the utility host
	// sits one hop away).
	if rootAll := ChooseRoot(net); rootAll == usw {
		t.Errorf("without ignoring, the utility switch should not win")
	}
}

// TestDominantRelabel builds a topology with a locally dominant switch (a
// high-BFS-numbered hostless switch whose neighbours all have smaller
// labels) and checks the fix makes it usable while staying deadlock-free.
func TestDominantRelabel(t *testing.T) {
	// Two hosts on two switches joined both directly and through a third
	// hostless switch: BFS from the root labels the hostless switch last,
	// making it dominant (all neighbours smaller).
	net := &topology.Network{}
	s1 := net.AddSwitch("s1")
	s2 := net.AddSwitch("s2")
	s3 := net.AddSwitch("s3") // candidate dominant transit switch
	h1 := net.AddHost("h1")
	h2 := net.AddHost("h2")
	net.MustConnect(h1, 0, s1, 0)
	net.MustConnect(h2, 0, s2, 0)
	net.MustConnect(s1, 1, s2, 1)
	net.MustConnect(s1, 2, s3, 0)
	net.MustConnect(s2, 2, s3, 1)

	cfg := DefaultConfig()
	cfg.Root = s1
	tab := computeOn(t, net, cfg)
	verifyAll(t, tab)
	if len(tab.Dominant) == 0 {
		t.Skip("BFS order did not produce a dominant switch in this embedding")
	}
	// After relabelling, s3 must be usable: its label sits below both
	// neighbours, so routes may go up into it and down out of it.
	for _, d := range tab.Dominant {
		for p := 0; p < net.NumPorts(d); p++ {
			if end, ok := net.Neighbor(d, p); ok {
				if tab.Labels[end.Node] <= tab.Labels[d] {
					t.Errorf("dominant switch %d still above neighbour %d", d, end.Node)
				}
			}
		}
	}
}

// TestNoRouteThroughLoopback: loopback cables must never appear on routes.
func TestNoRouteThroughLoopback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := topology.MustLine(3, 2, rng)
	sw := net.Switches()
	// Add a loopback cable on the middle switch.
	if _, _, _, err := net.ConnectFree(sw[1], sw[1]); err != nil {
		t.Fatal(err)
	}
	loop := net.NumWires() - 1
	tab := computeOn(t, net, DefaultConfig())
	verifyAll(t, tab)
	tab.Pairs(func(s, d topology.NodeID, p Path) {
		for w := p.Walk(); w.Next(); {
			if w.Wire() == loop {
				t.Errorf("route %s->%s uses loopback cable", net.NameOf(s), net.NameOf(d))
			}
		}
	})
}

// TestRootInEveryUpClosure is the property Compute's refusal contract
// rests on (doc.go): every leaf switch's up-only closure contains the
// root, so every leaf pair has a compliant path through it and no leaf
// build can meet a pair without one. Checked from the natural root on
// every generator × 3 seeds, from every switch as a forced root on the
// first seed, and on random fabrics whose relabelling fired (Dominant
// non-empty), some of them with switches relabelled below the root.
func TestRootInEveryUpClosure(t *testing.T) {
	check := func(what string, net *topology.Network, cfg Config) *Table {
		t.Helper()
		tab := computeOn(t, net, cfg)
		b := tab.b
		root := int(b.sw[tab.Root])
		for _, leaf := range b.leaves {
			if b.up[int(b.sw[leaf])*b.S+root] >= inf {
				t.Fatalf("%s: root %d is not up-reachable from leaf %d (Dominant %v)", what, tab.Root, leaf, tab.Dominant)
			}
		}
		return tab
	}
	for _, spec := range diffSpecs {
		for seed := int64(1); seed <= 3; seed++ {
			res, err := genspec.Build(spec, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			check(spec, res.Net, DefaultConfig())
			if seed > 1 {
				continue
			}
			for _, s := range res.Net.Switches() {
				check(spec+" forced root", res.Net, Config{Root: s})
			}
		}
	}
	relabelled, below := 0, 0
	for seed := int64(1); (relabelled < 40 || below < 4) && seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := fmt.Sprintf("random:%d,%d,%d", 4+rng.Intn(20), 2+rng.Intn(20), 1+rng.Intn(12))
		res, err := genspec.Build(spec, rng)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		sw := res.Net.Switches()
		for _, cfg := range []Config{DefaultConfig(), {Root: sw[rng.Intn(len(sw))]}} {
			tab := check(spec, res.Net, cfg)
			if len(tab.Dominant) > 0 {
				relabelled++
			}
			if slices.Min(tab.Labels) < tab.Labels[tab.Root] {
				below++
			}
		}
	}
	if relabelled < 40 || below < 4 {
		t.Fatalf("%d random fabrics relabelled a dominant switch, %d below the root; want 40 and 4", relabelled, below)
	}
}
