package wormsim

import (
	"math/rand"
	"testing"
	"time"

	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// injectPermutation launches one worm per host to a shifted partner, all at
// t=0 — the classic all-at-once permutation that exposes routing deadlock.
func injectPermutation(t *testing.T, s *Sim, net *topology.Network, tab *routes.Table, shift int) {
	t.Helper()
	hosts := net.Hosts()
	for i, src := range hosts {
		dst := hosts[(i+shift)%len(hosts)]
		if dst == src {
			continue
		}
		route, ok := tab.Route(src, dst)
		if !ok {
			t.Fatalf("no route %s -> %s", net.NameOf(src), net.NameOf(dst))
		}
		if err := s.Inject(0, src, route); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpDownNeverDeadlocks: hold-and-wait circuit acquisition with
// UP*/DOWN* routes delivers every worm on every topology tried — the
// operational meaning of the acyclic channel-dependency graph.
func TestUpDownNeverDeadlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nets := map[string]*topology.Network{
		"torus":     topology.MustTorus(4, 4, 1, rng),
		"hypercube": topology.MustHypercube(3, 1, rng),
		"ring":      topology.MustRing(6, 1, rng),
		"mesh":      topology.MustMesh(3, 3, 1, rng),
	}
	for name, net := range nets {
		net := net
		t.Run(name, func(t *testing.T) {
			tab, err := routes.Compute(net, routes.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for shift := 1; shift < net.NumHosts(); shift++ {
				s := New(net, simnet.DefaultTiming())
				injectPermutation(t, s, net, tab, shift)
				st := s.Run()
				if st.Deadlocked != 0 {
					t.Fatalf("shift %d: %d worms deadlocked under UP*/DOWN*", shift, st.Deadlocked)
				}
				if st.Delivered != st.Injected {
					t.Fatalf("shift %d: delivered %d of %d", shift, st.Delivered, st.Injected)
				}
			}
		})
	}
}

// TestDeadlockBreakUnblocksOthers: after the hardware break, the surviving
// worms of the cycle complete.
func TestDeadlockBreakUnblocksOthers(t *testing.T) {
	// Hand-built 3-switch ring with one host each; three worms chase each
	// other around the ring: a guaranteed 3-cycle.
	net := &topology.Network{}
	var sw [3]topology.NodeID
	var hs [3]topology.NodeID
	for i := range sw {
		sw[i] = net.AddSwitch("")
	}
	for i := range hs {
		hs[i] = net.AddHost(string(rune('a' + i)))
		net.MustConnect(hs[i], 0, sw[i], 0)
	}
	net.MustConnect(sw[0], 1, sw[1], 2)
	net.MustConnect(sw[1], 1, sw[2], 2)
	net.MustConnect(sw[2], 1, sw[0], 2)

	s := New(net, simnet.DefaultTiming())
	// Each host sends to the next host clockwise THROUGH the third switch
	// (the long way), so every worm holds one ring link and wants the next.
	longWay := func(i int) simnet.Route {
		// host i -> sw i (entry 0): exit port 2 is the "counter-clockwise"
		// wire toward sw (i-1)... build by evaluation: exit 1 then 1 then
		// into host: sw i (entry 0) turn +1 -> port 1 -> next switch
		// (entry 2): turn -1 -> port 1 -> next-next switch (entry 2):
		// turn -2 -> port 0 -> host.
		return simnet.Route{1, -1, -2}
	}
	for i := range hs {
		if err := s.Inject(0, hs[i], longWay(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Run()
	if st.Deadlocked == 0 {
		t.Fatalf("expected the 3-cycle to deadlock: %+v", st)
	}
	if st.Delivered+st.Deadlocked != 3 {
		t.Fatalf("worms unaccounted for: %+v", st)
	}
	if st.Delivered == 0 {
		t.Fatalf("breaking the deadlock should let survivors finish: %+v", st)
	}
	if st.End < simnet.DefaultTiming().BlockedPortReset {
		t.Fatalf("break fired before the deadlock timeout: %+v", st)
	}
}

// TestStaggeredInjectionAvoidsWaits: worms injected far apart never
// contend.
func TestStaggeredInjectionAvoidsWaits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := topology.MustRing(4, 1, rng)
	tab, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(net, simnet.DefaultTiming())
	hosts := net.Hosts()
	gap := time.Millisecond
	for i, src := range hosts {
		dst := hosts[(i+1)%len(hosts)]
		route, _ := tab.Route(src, dst)
		if err := s.Inject(time.Duration(i)*gap, src, route); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Run()
	if st.Waits != 0 || st.Deadlocked != 0 || st.Delivered != st.Injected {
		t.Fatalf("staggered worms should glide through: %+v", st)
	}
}

// TestInjectRejectsBadRoute.
func TestInjectRejectsBadRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := topology.MustLine(2, 1, rng)
	s := New(net, simnet.DefaultTiming())
	if err := s.Inject(0, net.Hosts()[0], simnet.Route{7, 7, 7}); err == nil {
		t.Fatal("accepted an undeliverable route")
	}
}
