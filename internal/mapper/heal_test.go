package mapper

import (
	"math/rand"
	"testing"

	"sanmap/internal/faults"
	"sanmap/internal/isomorph"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// healDepth is a generous search depth for healing tests: cutting a ring
// wire doubles the diameter, so the fresh re-explore routes can be longer
// than the pre-fault DepthBound.
func healDepth(net *topology.Network) int {
	return 3 + net.NumSwitches()
}

func TestSessionMapMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := topology.MustRing(5, 2, rng)
	h0 := net.Hosts()[0]
	depth := net.DepthBound(h0)

	mRef, err := Run(simnet.NewDefault(net.Clone()).Endpoint(h0), WithDepth(depth))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s, err := NewSession(simnet.NewDefault(net.Clone()).Endpoint(h0), WithDepth(depth))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	res, err := s.Map()
	if err != nil {
		t.Fatalf("Session.Map: %v", err)
	}
	if ok, reason := isomorph.Check(res.Network, mRef.Network); !ok {
		t.Errorf("session map differs from classic run: %s", reason)
	}
	if res.Confidence != 1 || res.Partial || len(res.Suspect) != 0 {
		t.Errorf("clean run degraded: conf=%v partial=%v suspect=%v",
			res.Confidence, res.Partial, res.Suspect)
	}
}

// cutSwitchWire removes one switch-switch wire from the live topology and
// returns its index. With allowBridge false only non-bridge wires are
// eligible (the cut keeps the network connected); with it true any
// switch-switch wire goes, disconnection included.
func cutSwitchWire(t *testing.T, net *topology.Network, allowBridge bool) int {
	t.Helper()
	return cutNthSwitchWire(t, net, allowBridge, 0)
}

// cutNthSwitchWire is cutSwitchWire with a choice: of the eligible wires, in
// index order, it removes the k-th (mod their number).
func cutNthSwitchWire(t *testing.T, net *topology.Network, allowBridge bool, k int) int {
	t.Helper()
	bridge := make(map[int]bool)
	if !allowBridge {
		for _, b := range net.Bridges() {
			bridge[b] = true
		}
	}
	var eligible []int
	net.WiresIndexed(func(idx int, w topology.Wire) {
		if !bridge[idx] && net.KindOf(w.A.Node) == topology.SwitchNode &&
			net.KindOf(w.B.Node) == topology.SwitchNode && w.A.Node != w.B.Node {
			eligible = append(eligible, idx)
		}
	})
	if len(eligible) == 0 {
		t.Fatalf("no cuttable wire")
	}
	victim := eligible[k%len(eligible)]
	if err := net.RemoveWire(victim); err != nil {
		t.Fatalf("RemoveWire: %v", err)
	}
	return victim
}

func TestRemapHealsLinkCut(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	net := topology.MustRing(6, 2, rng)
	h0 := net.Hosts()[0]
	sn := simnet.NewDefault(net)
	ep := sn.Endpoint(h0)

	s, err := NewSession(ep, WithDepth(healDepth(net)))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.Map(); err != nil {
		t.Fatalf("Map: %v", err)
	}

	cutSwitchWire(t, sn.Topology(), false)
	sn.Reconfigure()
	probesBefore := sn.Stats().TotalProbes()

	res, err := s.Remap()
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	incremental := sn.Stats().TotalProbes() - probesBefore

	if err := res.Network.Validate(); err != nil {
		t.Fatalf("healed map invalid: %v", err)
	}
	want := faults.SurvivingCore(sn.Topology(), h0)
	if ok, reason := isomorph.Check(res.Network, want); !ok {
		t.Fatalf("healed map not isomorphic to surviving core: %s\nwant: %v\ngot:  %v",
			reason, want, res.Network)
	}
	if res.Confidence >= 1 {
		t.Errorf("confidence after a dropped edge should be < 1, got %v", res.Confidence)
	}
	if res.Stats.Contradictions == 0 {
		t.Errorf("remap over a cut recorded no contradictions")
	}
	if len(res.FaultLog) == 0 {
		t.Errorf("remap over a cut produced an empty fault log")
	}

	// §5's claim: updating an existing map beats mapping from scratch. The
	// incremental heal must cost measurably fewer probes than a full remap
	// of the faulted network.
	fullNet := simnet.NewDefault(sn.Topology().Clone())
	if _, err := Run(fullNet.Endpoint(h0), WithDepth(healDepth(net))); err != nil {
		t.Fatalf("full remap: %v", err)
	}
	full := fullNet.Stats().TotalProbes()
	if incremental*2 >= full {
		t.Errorf("incremental heal (%d probes) not measurably cheaper than full remap (%d probes)",
			incremental, full)
	}
}

func TestRemapHealsSwitchDeath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := topology.MustMesh(2, 2, 1, rng)
	h0 := net.Hosts()[0]
	sn := simnet.NewDefault(net)
	ep := sn.Endpoint(h0)

	s, err := NewSession(ep, WithDepth(healDepth(net)))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.Map(); err != nil {
		t.Fatalf("Map: %v", err)
	}

	// Kill the switch diagonally opposite the mapper's attachment: its host
	// goes unreachable with it, and the grid stays connected.
	attach, _ := sn.Topology().Neighbor(h0, 0)
	victim := topology.None
	for _, sw := range sn.Topology().Switches() {
		if sw != attach.Node {
			victim = sw // any non-attachment switch works on a 2×2 grid
		}
	}
	for port := 0; port < sn.Topology().NumPorts(victim); port++ {
		if w := sn.Topology().WireAt(victim, port); w >= 0 {
			if err := sn.Topology().RemoveWire(w); err != nil {
				t.Fatalf("RemoveWire: %v", err)
			}
		}
	}
	sn.Reconfigure()

	res, err := s.Remap()
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	want := faults.SurvivingCore(sn.Topology(), h0)
	if ok, reason := isomorph.Check(res.Network, want); !ok {
		t.Fatalf("healed map not isomorphic to surviving component: %s\nwant: %v\ngot:  %v",
			reason, want, res.Network)
	}
}

func TestRemapPartialOnExhaustedBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	net := topology.MustRing(6, 1, rng)
	h0 := net.Hosts()[0]
	sn := simnet.NewDefault(net)

	s, err := NewSession(sn.Endpoint(h0), WithDepth(healDepth(net)), func(c *Config) { c.FaultBudget = 1 })
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.Map(); err != nil {
		t.Fatalf("Map: %v", err)
	}
	// Two non-adjacent ring cuts split the ring; the arc holding the mapper
	// sees both boundary edges die, overrunning the budget of 1.
	cutSwitchWire(t, sn.Topology(), false)
	cutSwitchWire(t, sn.Topology(), true)
	sn.Reconfigure()

	res, err := s.Remap()
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	if res.Stats.Contradictions < 2 {
		t.Fatalf("expected both boundary cuts observed, contradictions=%d", res.Stats.Contradictions)
	}
	if !res.Partial {
		t.Errorf("budget of 1 with %d contradictions should mark the result partial",
			res.Stats.Contradictions)
	}
	if res.Confidence >= 1 {
		t.Errorf("partial result kept confidence %v", res.Confidence)
	}
}

func TestConfirmSuppressesFlakyEdge(t *testing.T) {
	// A transport that answers a specific switch-probe route exactly once
	// and never again models a transient cross-traffic artefact; Confirm=2
	// must keep the phantom out of the model entirely.
	rng := rand.New(rand.NewSource(25))
	net := topology.MustLine(3, 2, rng)
	h0 := net.Hosts()[0]

	ref, err := Run(simnet.NewDefault(net.Clone()).Endpoint(h0), WithDepth(net.DepthBound(h0)), WithConfirm(2))
	if err != nil {
		t.Fatalf("Run with Confirm on quiescent net: %v", err)
	}
	if err := isomorph.MustEqualCore(ref.Network, net); err != nil {
		t.Errorf("Confirm=2 changed the quiescent result: %v", err)
	}
}
