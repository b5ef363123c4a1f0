package routes

import (
	"fmt"
	"slices"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// ShortestPaths computes unrestricted shortest-path routes between all host
// pairs — the naive baseline that ignores the turn model entirely. On
// cyclic topologies (rings, tori, hypercubes) the resulting channel
// dependency graph contains cycles, i.e. the routes can wormhole-deadlock;
// VerifyDeadlockFree exists to catch exactly that, and the §5.5 pipeline's
// point is that UP*/DOWN* routes never trigger it.
//
// The returned table has no UP*/DOWN* labelling: VerifyUpDown and the
// Dominant field are meaningless for it (Labels is nil); VerifyDeadlockFree,
// VerifyDelivery, Route, LinkLoads and Distribute work as usual.
func ShortestPaths(net *topology.Network) (*Table, error) {
	if net.NumHosts() < 2 {
		return nil, fmt.Errorf("routes: need at least two hosts, have %d", net.NumHosts())
	}
	if !net.IsConnected() {
		return nil, fmt.Errorf("routes: network is disconnected")
	}
	t, err := newTable(net, topology.None)
	if err != nil {
		return nil, err
	}
	t.b.dist, t.b.prevEnd = make([]int32, net.NumNodes()), make([]int32, net.NumNodes())
	return t, nil
}

// searchFrom writes the templates of every route from leaf i, the
// ShortestPaths table's. A host has one wire, so a shortest path from it
// is its wire, then a shortest path from its leaf: one BFS from the leaf
// over the wiring's end tables (ports in port order, matching the
// historical per-host scan) records the route to every other leaf, in the
// template form meetFrom writes. The network is connected, so the search
// reaches every leaf.
func (b *builder) searchFrom(t *Table, i int) {
	ix, at, peer := t.ends.ix, t.ends.at, t.ends.peer
	dist, prevEnd := b.dist, b.prevEnd // prevEnd: the end a shortest path to the node leaves its parent by
	for k := range dist {
		dist[k] = -1
	}
	a := b.leaves[i]
	dist[a] = 0
	queue := append(b.queue[:0], a)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for e := ix.EndID(u, 0); e < ix.EndID(u+1, 0); e++ {
			if peer[e] < 0 {
				continue
			}
			v := at[peer[e]].Node
			if v == u || dist[v] >= 0 {
				continue
			}
			dist[v] = dist[u] + 1
			prevEnd[v] = e
			queue = append(queue, v)
		}
	}
	b.queue = queue
	tmpl := b.tmpl[:0]
	for j, node := range b.leaves {
		lo, n := len(tmpl), int(dist[node])+1
		b.paths[j] = leafPath{lo: int32(lo), n: int32(n)}
		tmpl = slices.Grow(tmpl, n)[:lo+n]
		// Walk back from the leaf to a, writing the template from its
		// end: at each switch the port it leaves by minus the port it
		// arrived on, the port leaving a first, minus the one arriving
		// at the leaf last.
		cell, cur, out := tmpl[lo:lo+n], node, 0
		for k := n - 1; k > 0; k-- {
			e := prevEnd[cur]
			cell[k] = simnet.Turn(out - at[peer[e]].Port)
			out, cur = at[e].Port, at[e].Node
		}
		cell[0] = simnet.Turn(out)
	}
	b.tmpl = slices.Grow(tmpl, tmplPad)[:len(tmpl)+tmplPad]
}

// LinkLoads returns, per wire index, the number of routes in the table that
// traverse the wire (both directions combined). UP*/DOWN* is known to pile
// load onto the root's links ("increased congestion about the root", §5.5);
// this is the measurement.
func (t *Table) LinkLoads() map[int]int {
	loads := make(map[int]int)
	t.writeAll()
	t.pairs(func(_, _ topology.NodeID, p Path) {
		for w := p.Walk(); w.Next(); {
			loads[w.Wire()]++
		}
	})
	return loads
}

// CongestionReport summarises LinkLoads.
type CongestionReport struct {
	MaxLoad     int     // heaviest wire
	MeanLoad    float64 // over wires carrying any route
	MaxAtRoot   bool    // the heaviest wire touches the UP*/DOWN* root
	RootShare   float64 // fraction of total traversals on root-incident wires
	LoadedWires int
}

// Congestion computes the report; for ShortestPaths tables (no root) the
// root-related fields are zero.
func (t *Table) Congestion() CongestionReport {
	loads := t.LinkLoads()
	var rep CongestionReport
	total := 0
	maxWire := -1
	for wi, l := range loads {
		total += l
		rep.LoadedWires++
		if l > rep.MaxLoad {
			rep.MaxLoad = l
			maxWire = wi
		}
	}
	if rep.LoadedWires > 0 {
		rep.MeanLoad = float64(total) / float64(rep.LoadedWires)
	}
	if t.Root == topology.None || maxWire < 0 {
		return rep
	}
	rootTotal := 0
	for wi, l := range loads {
		if t.Net.WireByIndex(wi).Touches(t.Root) {
			rootTotal += l
		}
	}
	if total > 0 {
		rep.RootShare = float64(rootTotal) / float64(total)
	}
	rep.MaxAtRoot = t.Net.WireByIndex(maxWire).Touches(t.Root)
	return rep
}
