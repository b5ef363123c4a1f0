package topology

import (
	"fmt"

	"sanmap/internal/flow"
)

// This file computes the paper's probe-depth parameters (§3.1.4):
//
//   Definition 2: Q(v) is the length of the shortest path from the mapper
//   h0 to v and then on to any host that does not repeat an edge in either
//   direction, except that the first and last edge may be the same.
//
//   Definition 3: Q = max{ Q(v) | v ∈ N−F }.
//
// The algorithm's exploration depth bound is Q+D (the paper proves Q+D+1
// and then tightens by one). Q(v) is a 2-unit minimum-cost flow: reversing
// the path, we need two edge-disjoint unit paths out of v — one to h0 and
// one to any host — where h0's single host wire may carry both units (that
// is exactly the "first and last may be the same" anomaly). Every v shares
// the one sink, so Q builds the network once and asks flow.TwoUnitCost for
// each vertex in turn.

// qGraph builds the flow network shared by Q(v) and FByFlow. Node ids map
// directly to flow vertices; the sink is vertex NumNodes().
func (n *Network) qGraph(h0 NodeID) *flow.Graph {
	if n.nodes[h0].kind != HostNode {
		panic(fmt.Sprintf("topology: mapper %d is not a host", h0))
	}
	// Size every arc list first: two slots at each end of a wire's arc
	// pair, one at each end of a sink arc.
	sink := len(n.nodes)
	deg := make([]int, sink+1)
	for wi, w := range n.wires {
		if !n.dead[wi] {
			deg[w.A.Node] += 2
			deg[w.B.Node] += 2
		}
	}
	deg[h0]++
	deg[sink]++
	for i := range n.nodes {
		if n.nodes[i].kind == HostNode {
			deg[i]++
			deg[sink]++
		}
	}
	g := flow.NewSized(deg)
	h0Wire := n.WireAt(h0, HostPort)
	for wi, w := range n.wires {
		if n.dead[wi] {
			continue
		}
		capacity := int64(1)
		if wi == h0Wire {
			capacity = 2
		}
		g.AddEdge(int(w.A.Node), int(w.B.Node), capacity, 1)
	}
	// One unit must return to the mapper...
	g.AddArc(int(h0), sink, 1, 0)
	// ...and one unit must reach any host (h0 included: the anomalous case).
	for i := range n.nodes {
		if n.nodes[i].kind == HostNode {
			g.AddArc(i, sink, 1, 0)
		}
	}
	return g
}

// QOf computes Q(v) for the given mapper host h0. ok is false when Q(v) is
// undefined, i.e. v ∈ F.
func (n *Network) QOf(h0, v NodeID) (q int, ok bool) {
	pushed, cost := n.qGraph(h0).TwoUnitCost(int(v), len(n.nodes))
	if pushed < 2 {
		return 0, false
	}
	return int(cost), true
}

// Q computes Definition 3's bound: the maximum Q(v) over the core N−F.
// The second result is the set of nodes with undefined Q — by Lemma 1 this
// equals F, which TestLemma1 verifies against the switch-bridge definition.
func (n *Network) Q(h0 NodeID) (q int, undefined map[NodeID]bool) {
	undefined = make(map[NodeID]bool)
	return n.q(h0, undefined), undefined
}

// q is Q, recording the nodes with undefined Q in undefined unless it is
// nil.
func (n *Network) q(h0 NodeID, undefined map[NodeID]bool) (q int) {
	g := n.qGraph(h0)
	for i := range n.nodes {
		pushed, cost := g.TwoUnitCost(i, len(n.nodes))
		if pushed < 2 {
			if undefined != nil {
				undefined[NodeID(i)] = true
			}
		} else if int(cost) > q {
			q = int(cost)
		}
	}
	return q
}

// FByFlow computes F with the Max-Flow Min-Cut argument of Lemma 1, as an
// independent cross-check of the switch-bridge-based F().
func (n *Network) FByFlow(h0 NodeID) map[NodeID]bool {
	out := make(map[NodeID]bool)
	for i := range n.nodes {
		g := n.qGraph(h0)
		if g.MaxFlow(i, len(n.nodes), 2) < 2 {
			out[NodeID(i)] = true
		}
	}
	return out
}

// DepthBound returns the paper's exploration depth Q+D for a mapper at h0.
// Probe strings of this length suffice for Theorem 1's reconstruction
// guarantee.
func (n *Network) DepthBound(h0 NodeID) int {
	return n.q(h0, nil) + n.Diameter()
}
