package routes

import (
	"fmt"
	"math"
	"slices"

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

// oracleChooseRoot is the replaced ChooseRoot: one BFS over every node per
// switch, each non-ignored host's distance read off directly.
func oracleChooseRoot(net *topology.Network, ignore ...topology.NodeID) topology.NodeID {
	hosts := net.Hosts()
	for _, h := range ignore {
		if i := slices.Index(hosts, h); i >= 0 {
			hosts = slices.Delete(hosts, i, i+1)
		}
	}
	best := topology.None
	bestMin, bestSum := -1, -1
	ix := net.Index()
	dist := make([]int32, ix.NumNodes())
	for _, s := range net.Switches() {
		ix.BFSInto(s, dist)
		minD, sumD := math.MaxInt, 0
		for _, h := range hosts {
			if dist[h] < 0 {
				continue
			}
			if int(dist[h]) < minD {
				minD = int(dist[h])
			}
			sumD += int(dist[h])
		}
		if minD == math.MaxInt {
			continue
		}
		if minD > bestMin || (minD == bestMin && sumD > bestSum) {
			best, bestMin, bestSum = s, minD, sumD
		}
	}
	return best
}

// perSwitchChooseRoot is the ChooseRoot the bit-parallel search replaced:
// one breadth-first search per switch over the switch graph, each switch
// with hosts weighted by its non-ignored hosts.
func perSwitchChooseRoot(net *topology.Network, ignore ...topology.NodeID) topology.NodeID {
	swNode := net.Switches()
	S := len(swNode)
	sw := make([]int32, net.NumNodes())
	for i := range sw {
		sw[i] = -1
	}
	for i, s := range swNode {
		sw[s] = int32(i)
	}
	weight := make([]int, S)
	var leaves []int32
	for _, h := range net.Hosts() {
		s, _, ok := net.HostSwitch(h)
		if !ok || sw[s] < 0 || slices.Contains(ignore, h) {
			continue
		}
		if weight[sw[s]] == 0 {
			leaves = append(leaves, sw[s])
		}
		weight[sw[s]]++
	}
	ix := net.Index()
	adjOff := make([]int32, S+1)
	var adj []int32
	for i, s := range swNode {
		for _, v := range ix.Neighbors(s) {
			if sw[v] >= 0 && topology.NodeID(v) != s {
				adj = append(adj, sw[v])
			}
		}
		adjOff[i+1] = int32(len(adj))
	}
	best := topology.None
	bestMin, bestSum := -1, -1
	dist := make([]int32, S)
	queue := make([]int32, 0, S)
	for i, s := range swNode {
		for k := range dist {
			dist[k] = -1
		}
		dist[i] = 0
		queue = append(queue[:0], int32(i))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range adj[adjOff[u]:adjOff[u+1]] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		minD, sumD := math.MaxInt, 0
		for _, l := range leaves {
			if dist[l] < 0 {
				continue
			}
			d := int(dist[l]) + 1
			minD = min(minD, d)
			sumD += weight[l] * d
		}
		if minD == math.MaxInt {
			continue
		}
		if minD > bestMin || (minD == bestMin && sumD > bestSum) {
			best, bestMin, bestSum = s, minD, sumD
		}
	}
	return best
}

// oracleCompute is the replaced Compute: the all-node root choice, the same
// labelling (that did not change), then the old all-pairs construction.
func oracleCompute(net *topology.Network, cfg Config) (*oracleTable, error) {
	root := cfg.Root
	if root == topology.None {
		root = oracleChooseRoot(net, cfg.IgnoreHosts...)
	}
	t := &Table{Net: net, Root: root}
	t.label()
	o := &oracleTable{}
	if err := o.allPairs(t); err != nil {
		return nil, err
	}
	o.buildTurns(net)
	return o, nil
}

// across returns the node on the far side of wire wi from node `from`.
func across(net *topology.Network, wi, from int) int {
	w := net.WireByIndex(wi)
	if int(w.A.Node) == from {
		return int(w.B.Node)
	}
	return int(w.A.Node)
}

func (o *oracleTable) allPairs(t *Table) error {
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
			to := w.Other(from)
			if !t.isUp(from, to) {
				continue
			}
			i, j := int(from.Node), int(to.Node)
			if up[i][j] > 1 {
				up[i][j] = 1
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
			i = across(t.Net, int(w), i)
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

// oracleDeadlockFree is the replaced VerifyDeadlockFree verdict: the channel
// dependency graph as nested maps keyed by (wire, direction), searched for a
// cycle from its keys in map order.
func oracleDeadlockFree(net *topology.Network, o *oracleTable) bool {
	type channel struct {
		wire  int
		fromA bool
	}
	deps := make(map[channel]map[channel]bool)
	for s, row := range o.paths {
		for _, wires := range row {
			cur := s
			var prev *channel
			for _, wi := range wires {
				w := net.WireByIndex(wi)
				from := w.B
				if w.A.Node == cur {
					from = w.A
				}
				ch := channel{wire: wi, fromA: from == w.A}
				if prev != nil {
					if deps[*prev] == nil {
						deps[*prev] = make(map[channel]bool)
					}
					deps[*prev][ch] = true
				}
				prev = &ch
				cur = w.Other(from).Node
			}
		}
	}
	colour := make(map[channel]int)
	var visit func(c channel) bool // false on a cycle
	visit = func(c channel) bool {
		colour[c] = 1
		for next := range deps[c] {
			if colour[next] == 1 || (colour[next] == 0 && !visit(next)) {
				return false
			}
		}
		colour[c] = 2
		return true
	}
	for c := range deps {
		if colour[c] == 0 && !visit(c) {
			return false
		}
	}
	return true
}

// eagerTable is the table the leaves built on first lookup replaced: the
// meeting-node scan of every leaf pair in one serial pass (or one BFS per
// leaf for ShortestPaths), every leaf pair's template, every row's cells
// placed in one arena, and every row written from the templates. Kept as
// the reference the lazily built tables are compared against; it shares
// only the labels and the wiring snapshot with them.
type eagerTable struct {
	ord   []int32 // host ordinal per node, -1 for a switch
	cells []uint32
	row   []int32 // per host ordinal, its row's cells in cells
	start []uint32
	turns []simnet.Turn
}

// Route returns the turns the eager table holds for src → dst.
func (e *eagerTable) Route(src, dst topology.NodeID) (simnet.Route, bool) {
	n := topology.NodeID(len(e.ord))
	if src == dst || src < 0 || dst < 0 || src >= n || dst >= n || e.ord[src] < 0 || e.ord[dst] < 0 {
		return nil, false
	}
	si, di := e.ord[src], e.ord[dst]
	c := e.cells[e.row[si]+di:]
	return e.turns[e.start[si]+c[0] : e.start[si]+c[1]], true
}

// eagerLeaves gives every host its leaf ordinal and port, leaves numbered
// in the order their first host appears.
func eagerLeaves(net *topology.Network) (leaves []topology.NodeID, lord []int32, port []simnet.Turn, err error) {
	lordOf := make([]int32, net.NumNodes())
	for _, h := range net.Hosts() {
		far, ok := net.Neighbor(h, topology.HostPort)
		if !ok || net.KindOf(far.Node) != topology.SwitchNode {
			return nil, nil, nil, fmt.Errorf("routes: host %s is not cabled to a switch", net.NameOf(h))
		}
		if lordOf[far.Node] == 0 {
			leaves = append(leaves, far.Node)
			lordOf[far.Node] = int32(len(leaves))
		}
		lord, port = append(lord, lordOf[far.Node]-1), append(port, simnet.Turn(far.Port))
	}
	return leaves, lord, port, nil
}

// eagerNoPath reports leaf pair (i, j) unroutable under its first host pair.
func eagerNoPath(net *topology.Network, lord []int32, what string, i, j int) error {
	hosts := net.Hosts()
	s, d := hosts[slices.Index(lord, int32(i))], hosts[slices.Index(lord, int32(j))]
	return fmt.Errorf("routes: no %s %s -> %s", what, net.NameOf(s), net.NameOf(d))
}

// eagerCompute is Compute with the eager all-pairs pass.
func eagerCompute(net *topology.Network, cfg Config) (*eagerTable, error) {
	root := cfg.Root
	if root == topology.None {
		root = ChooseRoot(net, cfg.IgnoreHosts...)
	}
	t := &Table{Net: net, Root: root, ends: newEnds(net)}
	t.label()
	leafNodes, lord, port, err := eagerLeaves(net)
	if err != nil {
		return nil, err
	}
	swNode := net.Switches()
	S := len(swNode)
	sw := make([]int32, net.NumNodes())
	for i, s := range swNode {
		sw[s] = int32(i)
	}
	up, via := make([]int32, S*S), make([]int32, S*S)
	for i := range up {
		up[i], via[i] = inf, -1
	}
	for i := 0; i < S; i++ {
		up[i*S+i] = 0
	}
	ix := t.ends.ix
	net.WiresIndexed(func(wi int, w topology.Wire) {
		if w.A.Node == w.B.Node || net.KindOf(w.A.Node) != topology.SwitchNode || net.KindOf(w.B.Node) != topology.SwitchNode {
			return
		}
		for _, from := range [2]topology.End{w.A, w.B} {
			if !t.isUp(from, w.Other(from)) {
				continue
			}
			k := int(sw[from.Node])*S + int(sw[w.Other(from).Node])
			if up[k] > 1 {
				up[k], via[k] = 1, ix.EndID(from.Node, from.Port)
			}
		}
	})
	for k := 0; k < S; k++ {
		for i := 0; i < S; i++ {
			uik := up[i*S+k]
			if uik == inf {
				continue
			}
			for j := 0; j < S; j++ {
				if d := uik + up[k*S+j]; d < up[i*S+j] {
					up[i*S+j], via[i*S+j] = d, via[i*S+k]
				}
			}
		}
	}
	// climb: the up path from switch ordinal a to w as template turns, and
	// the port it arrives at w on.
	climb := func(a, w int) (turns []simnet.Turn, in simnet.Turn) {
		for a != w {
			e := via[a*S+w]
			turns = append(turns, simnet.Turn(t.ends.at[e].Port)-in)
			far := t.ends.at[t.ends.peer[e]]
			in, a = simnet.Turn(far.Port), int(sw[far.Node])
		}
		return turns, in
	}
	L := len(leafNodes)
	tmpl := make([][]simnet.Turn, L*L)
	for i, a := range leafNodes {
		for j, b := range leafNodes {
			if i == j {
				tmpl[i*L+j] = []simnet.Turn{0}
				continue
			}
			ai, bj := int(sw[a]), int(sw[b])
			bestW, bestC := -1, inf
			for w := 0; w < S; w++ {
				if up[ai*S+w] == inf {
					continue
				}
				if c := up[ai*S+w] + up[bj*S+w]; c < bestC {
					bestC, bestW = c, w
				}
			}
			if bestW < 0 {
				return nil, eagerNoPath(net, lord, "compliant path", i, j)
			}
			src, srcIn := climb(ai, bestW)
			dst, dstIn := climb(bj, bestW)
			cell := append(slices.Clone(src), dstIn-srcIn)
			for k := len(dst) - 1; k >= 0; k-- {
				cell = append(cell, -dst[k])
			}
			tmpl[i*L+j] = cell
		}
	}
	return eagerLayout(net, lord, port, tmpl), nil
}

// eagerShortestPaths is ShortestPaths with one BFS per leaf, all up front.
func eagerShortestPaths(net *topology.Network) (*eagerTable, error) {
	leafNodes, lord, port, err := eagerLeaves(net)
	if err != nil {
		return nil, err
	}
	e := newEnds(net)
	L := len(leafNodes)
	tmpl := make([][]simnet.Turn, L*L)
	prevEnd := make([]int32, net.NumNodes())
	dist := make([]int, net.NumNodes())
	for i, a := range leafNodes {
		for k := range dist {
			dist[k] = -1
		}
		dist[a] = 0
		queue := []topology.NodeID{a}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for p := range net.NumPorts(u) {
				k := e.ix.EndID(u, p)
				if e.peer[k] < 0 {
					continue
				}
				v := e.at[e.peer[k]].Node
				if v == u || dist[v] >= 0 {
					continue
				}
				dist[v] = dist[u] + 1
				prevEnd[v] = k
				queue = append(queue, v)
			}
		}
		for j, b := range leafNodes {
			if dist[b] < 0 {
				return nil, eagerNoPath(net, lord, "path", i, j)
			}
			cell, cur, out := make([]simnet.Turn, dist[b]+1), b, 0
			for k := dist[b]; k > 0; k-- {
				pe := prevEnd[cur]
				cell[k] = simnet.Turn(out - e.at[e.peer[pe]].Port)
				out, cur = e.at[pe].Port, e.at[pe].Node
			}
			cell[0] = simnet.Turn(out)
			tmpl[i*L+j] = cell
		}
	}
	return eagerLayout(net, lord, port, tmpl), nil
}

// eagerLayout places every row's cells in one arena and writes every row
// from the leaf-pair templates: the source's port subtracted from the
// first turn, the destination's added to the last.
func eagerLayout(net *topology.Network, lord []int32, port []simnet.Turn, tmpl [][]simnet.Turn) *eagerTable {
	hosts := net.Hosts()
	H, L := len(hosts), int(slices.Max(lord))+1
	e := &eagerTable{ord: make([]int32, net.NumNodes()), cells: make([]uint32, L*(H+1)), row: make([]int32, H), start: make([]uint32, H)}
	for i := range e.ord {
		e.ord[i] = -1
	}
	for i, h := range hosts {
		e.ord[h] = int32(i)
	}
	rowLen := make([]uint32, L)
	for i := range L {
		pos := uint32(0)
		for di, j := range lord {
			e.cells[i*(H+1)+di] = pos
			pos += uint32(len(tmpl[i*L+int(j)]))
		}
		e.cells[i*(H+1)+H], rowLen[i] = pos, pos
	}
	size := uint32(0)
	for si, i := range lord {
		e.row[si], e.start[si] = i*int32(H+1), size
		size += rowLen[i]
	}
	e.turns = make([]simnet.Turn, 0, size)
	for si, i := range lord {
		for di, j := range lord {
			cell := slices.Clone(tmpl[int(i)*L+int(j)])
			cell[0] -= port[si]
			cell[len(cell)-1] += port[di]
			e.turns = append(e.turns, cell...)
		}
	}
	return e
}
