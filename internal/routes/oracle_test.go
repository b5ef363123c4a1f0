package routes

import (
	"fmt"
	"math"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// oracleTable is the nested-map route table the flat arena replaced, kept
// verbatim as the reference the differential tests compare against: Floyd-
// Warshall over every node (hosts included), a meeting-node scan and two
// path extractions per host pair, one slice per route.
type oracleTable struct {
	paths map[topology.NodeID]map[topology.NodeID][]int
	turns map[topology.NodeID]map[topology.NodeID]simnet.Route
}

// oracleCompute is the replaced Compute: same root choice and labelling
// (those did not change), then the old all-pairs construction.
func oracleCompute(net *topology.Network, cfg Config) (*oracleTable, error) {
	root := cfg.Root
	if root == topology.None {
		root = ChooseRoot(net, cfg.IgnoreHosts...)
	}
	t := &Table{Net: net, Root: root}
	t.label()
	o := &oracleTable{}
	if err := o.allPairs(t, cfg); err != nil {
		return nil, err
	}
	o.buildTurns(net)
	return o, nil
}

func (o *oracleTable) allPairs(t *Table, cfg Config) error {
	n := t.Net.NumNodes()
	const inf = int32(math.MaxInt32 / 4)
	up := make([][]int32, n)
	via := make([][]int32, n)
	for i := range up {
		up[i] = make([]int32, n)
		via[i] = make([]int32, n)
		for j := range up[i] {
			up[i][j] = inf
			via[i][j] = -1
		}
		up[i][i] = 0
	}
	t.Net.WiresIndexed(func(wi int, w topology.Wire) {
		for _, from := range []topology.End{w.A, w.B} {
			if w.A.Node == w.B.Node {
				continue
			}
			if !t.upEnd(w, from) {
				continue
			}
			to := w.Other(from)
			i, j := int(from.Node), int(to.Node)
			if up[i][j] > 1 {
				up[i][j] = 1
				via[i][j] = int32(wi)
			} else if up[i][j] == 1 && cfg.Rng != nil && cfg.Rng.Intn(2) == 0 {
				via[i][j] = int32(wi)
			}
		}
	})
	for k := 0; k < n; k++ {
		upk := up[k]
		for i := 0; i < n; i++ {
			if up[i][k] == inf {
				continue
			}
			uik := up[i][k]
			for j := 0; j < n; j++ {
				if d := uik + upk[j]; d < up[i][j] {
					up[i][j] = d
					via[i][j] = via[i][k]
				}
			}
		}
	}
	extract := func(i, j int) []int {
		var out []int
		for i != j {
			w := via[i][j]
			if w < 0 {
				return nil
			}
			out = append(out, int(w))
			i = t.across(int(w), i)
		}
		return out
	}
	hosts := t.Net.Hosts()
	o.paths = make(map[topology.NodeID]map[topology.NodeID][]int, len(hosts))
	for _, s := range hosts {
		o.paths[s] = make(map[topology.NodeID][]int, len(hosts))
		for _, d := range hosts {
			if s == d {
				continue
			}
			bestW, bestC := -1, inf
			for w := 0; w < n; w++ {
				if up[s][w] == inf || up[d][w] == inf {
					continue
				}
				if c := up[s][w] + up[d][w]; c < bestC {
					bestC, bestW = c, w
				}
			}
			if bestW < 0 {
				return fmt.Errorf("routes: no compliant path %s -> %s",
					t.Net.NameOf(s), t.Net.NameOf(d))
			}
			upPath := extract(int(s), bestW)
			downPath := extract(int(d), bestW)
			for i, j := 0, len(downPath)-1; i < j; i, j = i+1, j-1 {
				downPath[i], downPath[j] = downPath[j], downPath[i]
			}
			o.paths[s][d] = append(upPath, downPath...)
		}
	}
	return nil
}

// oracleShortestPaths is the replaced ShortestPaths: per-host BFS over the
// CSR index, one freshly allocated wire slice per pair.
func oracleShortestPaths(net *topology.Network) *oracleTable {
	o := &oracleTable{paths: make(map[topology.NodeID]map[topology.NodeID][]int)}
	hosts := net.Hosts()
	ix := net.Index()
	prevWire := make([]int, net.NumNodes())
	dist := make([]int, net.NumNodes())
	for _, s := range hosts {
		for i := range dist {
			dist[i] = -1
			prevWire[i] = -1
		}
		dist[s] = 0
		queue := []topology.NodeID{s}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			wires := ix.Wires(u)
			for k, v := range ix.Neighbors(u) {
				if topology.NodeID(v) == u || dist[v] >= 0 {
					continue
				}
				dist[v] = dist[u] + 1
				prevWire[v] = int(wires[k])
				queue = append(queue, topology.NodeID(v))
			}
		}
		o.paths[s] = make(map[topology.NodeID][]int, len(hosts))
		for _, d := range hosts {
			if d == s {
				continue
			}
			wires := make([]int, dist[d])
			cur := d
			for i := dist[d] - 1; i >= 0; i-- {
				wi := prevWire[cur]
				wires[i] = wi
				w := net.WireByIndex(wi)
				if w.A.Node == cur {
					cur = w.B.Node
				} else {
					cur = w.A.Node
				}
			}
			o.paths[s][d] = wires
		}
	}
	o.buildTurns(net)
	return o
}

func (o *oracleTable) buildTurns(net *topology.Network) {
	o.turns = make(map[topology.NodeID]map[topology.NodeID]simnet.Route, len(o.paths))
	for s, row := range o.paths {
		o.turns[s] = make(map[topology.NodeID]simnet.Route, len(row))
		for d, wires := range row {
			var route simnet.Route
			curNode := s
			inPort := topology.HostPort
			for i, wi := range wires {
				w := net.WireByIndex(wi)
				var from, to topology.End
				if w.A.Node == curNode {
					from, to = w.A, w.B
				} else {
					from, to = w.B, w.A
				}
				if i > 0 {
					route = append(route, simnet.Turn(from.Port-inPort))
				}
				curNode, inPort = to.Node, to.Port
			}
			o.turns[s][d] = route
		}
	}
}
