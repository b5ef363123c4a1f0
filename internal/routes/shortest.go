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
	t := newTable(net, topology.None)
	leaves, err := t.leaves()
	if err != nil {
		return nil, err
	}
	// A host has one wire, so a shortest path from it is its wire, then a
	// shortest path from its leaf: one BFS per leaf over the wiring's end
	// tables (ports in port order, matching the historical per-host scan)
	// records the route between every two leaves as a template, the same
	// form Compute writes. The buffers are reused across leaves.
	ix, at, peer := t.ends.ix, t.ends.at, t.ends.peer
	L := len(leaves)
	prevEnd := make([]int32, net.NumNodes()) // the end a shortest path to the node leaves its parent by
	dist := make([]int, net.NumNodes())
	queue := make([]topology.NodeID, 0, net.NumNodes())
	paths := make([]leafPath, L*L)
	var tmpl []simnet.Turn
	for i, a := range leaves {
		for k := range dist {
			dist[k] = -1
		}
		dist[a] = 0
		queue = append(queue[:0], a)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for e := ix.EndID(u, 0); e < ix.EndID(u, net.NumPorts(u)); e++ {
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
		for j, b := range leaves {
			if dist[b] < 0 {
				return nil, t.noPath("path", i, j)
			}
			lo, n := len(tmpl), dist[b]+1
			paths[i*L+j] = leafPath{lo: int32(lo), n: int32(n)}
			tmpl = slices.Grow(tmpl, n)[:lo+n]
			// Walk back from b to a, writing the template from its end:
			// at each switch the port it leaves by minus the port it
			// arrived on, the port leaving a first, minus the one
			// arriving at b last.
			cell, cur, out := tmpl[lo:lo+n], b, 0
			for k := n - 1; k > 0; k-- {
				e := prevEnd[cur]
				cell[k] = simnet.Turn(out - at[peer[e]].Port)
				out, cur = at[e].Port, at[e].Node
			}
			cell[0] = simnet.Turn(out)
		}
	}
	t.nleaf, t.paths, t.tmpl = L, paths, append(tmpl, make([]simnet.Turn, tmplPad)...)
	if err := t.layout(); err != nil {
		return nil, err
	}
	return t, nil
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
