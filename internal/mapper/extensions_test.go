package mapper

import (
	"math/rand"
	"testing"

	"sanmap/internal/isomorph"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// TestMergeMapsFromDifferentVantagePoints: maps taken by different hosts
// (full depth each, so full overlap) merge into a view isomorphic to each
// individual map — the §6 parallel-mapping merge.
func TestMergeMapsFromDifferentVantagePoints(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := topology.MustRandomConnected(4, 6, 2, rng)
		hosts := net.Hosts()
		var partials []*Map
		for _, h := range []topology.NodeID{hosts[0], hosts[len(hosts)/2], hosts[len(hosts)-1]} {
			sn := simnet.NewDefault(net)
			m, err := Run(sn.Endpoint(h), WithDepth(net.DepthBound(h)))
			if err != nil {
				t.Fatalf("seed %d host %d: %v", seed, h, err)
			}
			partials = append(partials, m)
		}
		merged, err := MergeMaps(partials...)
		if err != nil {
			t.Fatalf("seed %d: merge: %v", seed, err)
		}
		if err := isomorph.MustEqualCore(merged.Network, net); err != nil {
			t.Fatalf("seed %d: merged map: %v", seed, err)
		}
		if merged.Stats.Inconsistent != 0 {
			t.Errorf("seed %d: merge recorded %d inconsistencies", seed, merged.Stats.Inconsistent)
		}
	}
}

// TestMergeMapsPartialViews: depth-limited partial maps from opposite ends
// of a chain merge into more of the network than either saw alone.
func TestMergeMapsPartialViews(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	net := topology.MustLine(6, 1, rng) // 6 switches in a row, one host each
	hosts := net.Hosts()
	left, right := hosts[0], hosts[len(hosts)-1]

	partial := func(h topology.NodeID) *Map {
		sn := simnet.NewDefault(net)
		m, err := Run(sn.Endpoint(h), WithDepth(5)) // sees ~5 switches
		if err != nil {
			t.Fatalf("partial from %d: %v", h, err)
		}
		return m
	}
	pl, pr := partial(left), partial(right)
	if pl.Network.NumSwitches() >= net.NumSwitches() {
		t.Fatalf("left partial saw the whole network (%d switches); depth too deep for this test",
			pl.Network.NumSwitches())
	}
	merged, err := MergeMaps(pl, pr)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if got, l := merged.Network.NumSwitches(), pl.Network.NumSwitches(); got <= l {
		t.Errorf("merged view (%d switches) no larger than left partial (%d)", got, l)
	}
	if err := isomorph.MustEqualCore(merged.Network, net); err != nil {
		// Partial views may legitimately miss middle cross edges; require
		// only growth, but report for visibility.
		t.Logf("merged view not yet complete (expected for shallow partials): %v", err)
	}
}

// TestRandomizedRun: the coupon-collector hybrid must produce the same
// correct map as the plain BFS.
func TestRandomizedRun(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := topology.MustRandomConnected(4, 6, 2, rng)
		h0 := net.Hosts()[0]
		sn := simnet.NewDefault(net)
		m, err := Run(sn.Endpoint(h0), WithDepth(net.DepthBound(h0)),
			WithCoupons(60, rand.New(rand.NewSource(seed+1000))))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := isomorph.MustEqualCore(m.Network, net); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRandomizedCouponsCutBFSProbesNotTotal measures the hybrid against
// plain BFS on a hypercube(3), with hosts tolerant of leftover flits. The
// chains the coupon phase threads through the model let the BFS phase
// skip probes: it sends fewer than plain BFS (155 against 178 here). The
// BFS still explores as many switches (13), and the 120 coupons cost more
// than they save, so the hybrid's total is higher (275). The maps are
// isomorphic.
func TestRandomizedCouponsCutBFSProbesNotTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := topology.MustHypercube(3, 2, rng)
	h0 := net.Hosts()[0]
	depth := net.DepthBound(h0)

	snA := simnet.NewDefault(net)
	plain, err := Run(snA.Endpoint(h0), WithDepth(depth))
	if err != nil {
		t.Fatal(err)
	}
	const coupons = 120
	snB := simnet.NewDefault(net)
	hybrid, err := Run(snB.Endpoint(h0), WithDepth(depth), WithCoupons(coupons, rand.New(rand.NewSource(9))))
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := isomorph.Check(plain.Network, hybrid.Network); !ok {
		t.Fatalf("hybrid and plain maps differ: %s", reason)
	}
	plainTotal, hybridTotal := plain.Stats.Probes.TotalProbes(), hybrid.Stats.Probes.TotalProbes()
	t.Logf("hypercube(3): plain %d probes in %d explorations; hybrid %d probes (%d coupons) in %d explorations",
		plainTotal, plain.Stats.Explorations, hybridTotal, coupons, hybrid.Stats.Explorations)
	if bfs := hybridTotal - coupons; bfs >= plainTotal {
		t.Errorf("the hybrid's BFS phase sent %d probes, plain BFS %d: the coupons saved none", bfs, plainTotal)
	}
	if hybrid.Stats.Explorations > plain.Stats.Explorations {
		t.Errorf("the hybrid explored %d switches, plain BFS %d", hybrid.Stats.Explorations, plain.Stats.Explorations)
	}
	if hybridTotal <= plainTotal {
		t.Errorf("the hybrid sent %d probes in all, plain BFS %d: the coupons now pay for themselves, update this test", hybridTotal, plainTotal)
	}
}
