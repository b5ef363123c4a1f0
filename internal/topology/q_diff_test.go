// Differential test for Q: the batch solve (one flow network, shared-sink
// potentials, only the first path undone between sources) must agree with
// the construction it replaced — a fresh network and a full successive-
// shortest-path solve per vertex — on the value of every Q(v) and on which
// vertices have none; and so must DepthBound, Q plus the diameter, with the
// per-source diameter search. External package for the same reason as
// csr_equiv_test.go.
package topology_test

import (
	"math/rand"
	"testing"

	"sanmap/internal/flow"
	"sanmap/internal/genspec"
	"sanmap/internal/topology"
)

// oracleQOf is the replaced QOf, rebuilt from the public API: Definition 2
// as a two-unit min-cost flow on a network built for this one vertex.
func oracleQOf(t *testing.T, n *topology.Network, h0, v topology.NodeID) (int, bool) {
	t.Helper()
	sink := n.NumNodes()
	g := flow.New(sink + 1)
	h0Wire := n.WireAt(h0, topology.HostPort)
	n.WiresIndexed(func(wi int, w topology.Wire) {
		capacity := int64(1)
		if wi == h0Wire {
			capacity = 2
		}
		g.AddEdge(int(w.A.Node), int(w.B.Node), capacity, 1)
	})
	g.AddArc(int(h0), sink, 1, 0)
	for _, h := range n.Hosts() {
		g.AddArc(int(h), sink, 1, 0)
	}
	pushed, cost, err := g.MinCostFlow(int(v), sink, 2)
	if err != nil {
		t.Fatal(err)
	}
	return int(cost), pushed == 2
}

func checkQ(t *testing.T, n *topology.Network, h0 topology.NodeID) (undefined int) {
	t.Helper()
	q, undef := n.Q(h0)
	wantQ := 0
	for v := topology.NodeID(0); int(v) < n.NumNodes(); v++ {
		want, ok := oracleQOf(t, n, h0, v)
		if ok && want > wantQ {
			wantQ = want
		}
		if undef[v] == ok {
			t.Fatalf("node %s: Q undefined=%v, oracle defined=%v", n.NameOf(v), undef[v], ok)
		}
		if got, gotOK := n.QOf(h0, v); gotOK != ok || (ok && got != want) {
			t.Fatalf("node %s: QOf = %d,%v, oracle %d,%v", n.NameOf(v), got, gotOK, want, ok)
		}
	}
	if q != wantQ {
		t.Fatalf("Q = %d, oracle %d", q, wantQ)
	}
	if got, want := n.DepthBound(h0), wantQ+perSourceDiameter(n.Index()); got != want {
		t.Fatalf("DepthBound = %d, oracle Q + per-source diameter %d", got, want)
	}
	return len(undef)
}

func TestQMatchesPerVertexOracle(t *testing.T) {
	withF := 0
	for _, name := range genspec.Names() {
		spec, ok := sampleSpecs[name]
		if !ok {
			t.Fatalf("no sample spec for registered generator %q", name)
		}
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			res, err := genspec.Build(spec, rng)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			n := res.Net
			hosts := n.Hosts()
			h0 := hosts[rng.Intn(len(hosts))]
			checkQ(t, n, h0)

			// A hostless tail gives a non-empty F; cuts (which may strand
			// whole regions, the mapper's own wire included) leave dead
			// wire slots in the arc numbering.
			topology.WithTail(n, n.Switches()[rng.Intn(n.NumSwitches())], 1+rng.Intn(2), rng)
			if checkQ(t, n, h0) > 0 {
				withF++
			}
			for cuts := 0; cuts < 3; cuts++ {
				if wi := rng.Intn(n.NumWireSlots()); n.WireAlive(wi) {
					if err := n.RemoveWire(wi); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkQ(t, n, h0)
		}
	}
	if withF == 0 {
		t.Fatal("no network in the matrix had a non-empty F")
	}
}
