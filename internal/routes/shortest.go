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
	// Per-host BFS over the CSR index (adjacency in port order, matching
	// the historical per-port scan); the buffers are reused across hosts.
	ix := net.Index()
	prevWire := make([]int, net.NumNodes())
	dist := make([]int, net.NumNodes())
	queue := make([]topology.NodeID, 0, net.NumNodes())
	for si, s := range t.hosts {
		// BFS recording the first wire on a shortest path to each node.
		for i := range dist {
			dist[i] = -1
			prevWire[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			nbrs := ix.Neighbors(u)
			wires := ix.Wires(u)
			for k, v := range nbrs {
				if topology.NodeID(v) == u || dist[v] >= 0 {
					continue
				}
				dist[v] = dist[u] + 1
				prevWire[v] = int(wires[k])
				queue = append(queue, topology.NodeID(v))
			}
		}
		for di, d := range t.hosts {
			lo := len(t.wires)
			t.off[si*len(t.hosts)+di] = uint32(lo)
			if d == s {
				continue
			}
			if dist[d] < 0 {
				return nil, fmt.Errorf("routes: no path %s -> %s", net.NameOf(s), net.NameOf(d))
			}
			// Walk back from d to s, filling the pair's span from its end.
			t.wires = slices.Grow(t.wires, dist[d])[:lo+dist[d]]
			cur := int(d)
			for i := len(t.wires) - 1; i >= lo; i-- {
				t.wires[i] = prevWire[cur]
				cur = t.across(prevWire[cur], cur)
			}
		}
	}
	t.off[len(t.off)-1] = uint32(len(t.wires))
	t.turns = make([]simnet.Turn, len(t.wires))
	for slot := range t.off[1:] {
		t.walkTurns(slot)
	}
	return t, nil
}

// LinkLoads returns, per wire index, the number of routes in the table that
// traverse the wire (both directions combined). UP*/DOWN* is known to pile
// load onto the root's links ("increased congestion about the root", §5.5);
// this is the measurement.
func (t *Table) LinkLoads() map[int]int {
	loads := make(map[int]int)
	for _, wi := range t.wires {
		loads[wi]++
	}
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
