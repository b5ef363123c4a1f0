package routes

import (
	"math/rand"
	"runtime"
	"testing"

	"sanmap/internal/cluster"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// TestShortestPathsDeliver: the naive routes are at least functional.
func TestShortestPathsDeliver(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := topology.MustTorus(3, 3, 1, rng)
	tab, err := ShortestPaths(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.VerifyDelivery(net); err != nil {
		t.Fatal(err)
	}
}

// TestShortestPathsDeadlockOnTorus is the negative control for the
// deadlock verifier: unrestricted shortest paths on a torus produce a
// channel-dependency cycle, while UP*/DOWN* on the same network does not.
// (This is why the paper computes UP*/DOWN* rather than plain shortest
// paths from its maps.)
func TestShortestPathsDeadlockOnTorus(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := topology.MustTorus(4, 4, 1, rng)

	naive, err := ShortestPaths(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := naive.VerifyDeadlockFree(); err == nil {
		t.Error("expected a channel-dependency cycle in naive torus routes")
	}
	safe, err := Compute(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := safe.VerifyDeadlockFree(); err != nil {
		t.Errorf("UP*/DOWN* on the same torus deadlocked: %v", err)
	}
}

// TestDeadlockCycleReportStable: the cycle VerifyDeadlockFree names is the
// same on every call and at any GOMAXPROCS, because the search runs over
// dense channel numbers in ascending order rather than a map's.
func TestDeadlockCycleReportStable(t *testing.T) {
	naive, err := ShortestPaths(topology.MustTorus(4, 4, 1, rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}
	want := naive.VerifyDeadlockFree()
	if want == nil {
		t.Fatal("expected a channel-dependency cycle in naive torus routes")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 20; i++ {
			if got := naive.VerifyDeadlockFree(); got == nil || got.Error() != want.Error() {
				t.Fatalf("GOMAXPROCS %d call %d: %v, first call: %v", procs, i, got, want)
			}
		}
	}
}

// TestRootCongestion reproduces the paper's §5.5 remark that "the goodness
// of UP*/DOWN* routes is known to be highly topology-dependant" with
// "increased congestion about the root" as a common effect: on a star every
// inter-leaf route must climb to the hub (the root), which therefore
// carries most traversals; on the NOW fat tree, middle-level bypass keeps
// the root share low. Both facts are asserted.
func TestRootCongestion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	star := topology.MustStar(4, 3, rng)
	tabStar, err := Compute(star, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repStar := tabStar.Congestion()
	if repStar.RootShare < 0.4 {
		t.Errorf("star root share %.2f; every inter-leaf route crosses the hub", repStar.RootShare)
	}
	if repStar.MaxLoad <= int(repStar.MeanLoad) {
		t.Errorf("expected hot wires at the star root: %+v", repStar)
	}

	sys := cluster.CConfig(nil)
	cfg := DefaultConfig()
	cfg.IgnoreHosts = []topology.NodeID{sys.Utility}
	tabC, err := Compute(sys.Net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repC := tabC.Congestion()
	if repC.RootShare >= repStar.RootShare {
		t.Errorf("fat-tree root share %.2f should undercut the star's %.2f (mid-level bypass)",
			repC.RootShare, repStar.RootShare)
	}
	t.Logf("root share: star %.0f%%, fat-tree C %.0f%% (max load %d vs mean %.1f)",
		100*repStar.RootShare, 100*repC.RootShare, repC.MaxLoad, repC.MeanLoad)
}

// TestMappedRoutesWorkOnActualNetwork is the system's operational
// centrepiece: routes are computed from the *map* (anonymous switches,
// arbitrary per-switch port offsets) and must work verbatim on the *actual*
// network, because relative turns are invariant under the per-switch frame
// rotations Lemma 2 leaves undetermined. "From such maps, the system
// computes mutually deadlock-free routes and distributes them to all
// network interfaces."
func TestMappedRoutesWorkOnActualNetwork(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := topology.MustRandomConnected(4+rng.Intn(4), 4+rng.Intn(6), rng.Intn(4), rng)
		if len(net.F()) > 0 {
			continue // routes need the full network mapped
		}
		h0 := net.Hosts()[0]
		sn := simnet.NewDefault(net)
		m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(net.DepthBound(h0)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tab, err := Compute(m.Network, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Evaluate every turn route on the ACTUAL network, translating
		// endpoints by host name.
		actual := simnet.New(net, simnet.PacketModel, simnet.DefaultTiming())
		checked := 0
		tab.Pairs(func(src, dst topology.NodeID, p Path) {
			turns := p.Route()
			aSrc := net.Lookup(m.Network.NameOf(src))
			aDst := net.Lookup(m.Network.NameOf(dst))
			if aSrc == topology.None || aDst == topology.None {
				t.Fatalf("seed %d: host translation failed", seed)
			}
			res := actual.Eval(aSrc, turns)
			if res.Outcome != simnet.Delivered || res.Dest != aDst {
				t.Fatalf("seed %d: map-derived route %v from %s to %s fails on the actual network: %v at node %d",
					seed, turns, net.NameOf(aSrc), net.NameOf(aDst), res.Outcome, res.Dest)
			}
			checked++
		})
		if checked == 0 {
			t.Fatalf("seed %d: no routes checked", seed)
		}
	}
}

// TestMappedRoutesOnNOW runs the same transfer check on the paper's own
// 100-node configuration.
func TestMappedRoutesOnNOW(t *testing.T) {
	sys := cluster.CABConfig(nil)
	net := sys.Net
	h0 := sys.Mapper()
	sn := simnet.NewDefault(net)
	m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(net.DepthBound(h0)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.IgnoreHosts = []topology.NodeID{m.Network.Lookup(net.NameOf(sys.Utility))}
	tab, err := Compute(m.Network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	actual := simnet.New(net, simnet.PacketModel, simnet.DefaultTiming())
	failures := 0
	tab.Pairs(func(src, dst topology.NodeID, p Path) {
		turns := p.Route()
		aSrc := net.Lookup(m.Network.NameOf(src))
		aDst := net.Lookup(m.Network.NameOf(dst))
		res := actual.Eval(aSrc, turns)
		if res.Outcome != simnet.Delivered || res.Dest != aDst {
			failures++
		}
	})
	if failures != 0 {
		t.Fatalf("%d of 9900 map-derived routes failed on the actual network", failures)
	}
}
