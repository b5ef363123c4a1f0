package topology

// Graph analyses used by the paper:
//
//   - BFS distances and the network diameter D (§2.1, "Let D be its
//     diameter"), measured in wires between nodes.
//   - Bridges and switch-bridges (§3.1.4): a bridge is an edge whose removal
//     disconnects the graph; a switch-bridge has switches at both ends.
//   - The set F of nodes separated from the hosts H by a switch-bridge, and
//     the core N−F (Lemma 1). The mapping algorithm provably reconstructs
//     the core, so experiments compare against it.
//
// All traversals run on the CSR Index (csr.go); the methods here are the
// compatibility wrappers that allocate the caller-owned result slices.

// BFS returns the hop distance from src to every node (-1 if unreachable).
func (n *Network) BFS(src NodeID) []int {
	dist := make([]int, len(n.nodes))
	ix := n.Index()
	sc := ix.scratch.Get().(*indexScratch)
	for i, d := range ix.bfs(src, sc.dist, sc) {
		dist[i] = int(d)
	}
	ix.scratch.Put(sc)
	return dist
}

// IsConnected reports whether all nodes are mutually reachable.
func (n *Network) IsConnected() bool {
	if len(n.nodes) == 0 {
		return true
	}
	ix := n.Index()
	sc := ix.scratch.Get().(*indexScratch)
	defer ix.scratch.Put(sc)
	for _, d := range ix.bfs(0, sc.dist, sc) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Components returns a component label per node and the component count.
func (n *Network) Components() (label []int, count int) {
	ix := n.Index()
	sc := ix.scratch.Get().(*indexScratch)
	count = ix.components(sc.dist, sc)
	label = make([]int, len(n.nodes))
	for i, l := range sc.dist {
		label[i] = int(l)
	}
	ix.scratch.Put(sc)
	return label, count
}

// Diameter returns the largest finite BFS distance between any node pair.
// For a disconnected network it considers each component separately.
func (n *Network) Diameter() int { return n.Index().Diameter() }

// Bridges returns the indices of all bridge wires. Self-loop cables and
// wires with a parallel twin are never bridges; see Index.BridgesInto for
// the multigraph-correct DFS.
func (n *Network) Bridges() []int {
	var out []int
	for _, wi := range n.Index().BridgesInto(nil) {
		out = append(out, int(wi))
	}
	return out
}

// SwitchBridges returns the bridges whose both endpoints are switches
// (Definition preceding Definition 2 in §3.1.4).
func (n *Network) SwitchBridges() []int {
	var out []int
	for _, wi := range n.Bridges() {
		w := n.wires[wi]
		if n.nodes[w.A.Node].kind == SwitchNode && n.nodes[w.B.Node].kind == SwitchNode {
			out = append(out, wi)
		}
	}
	return out
}

// F returns the set of nodes separated from the hosts by a switch-bridge
// (Lemma 1: "F = the set of all nodes that are separated by a switch-bridge
// from H"). A node is in F when the removal of one switch-bridge alone
// disconnects it from every host; a hostless region held to the rest of the
// network by two or more independent switch-bridges is still mappable.
// These are exactly the nodes the mapping algorithm cannot be expected to
// reconstruct; the prune stage removes their replicates.
func (n *Network) F() map[NodeID]bool {
	out := make(map[NodeID]bool)
	for _, wi := range n.SwitchBridges() {
		// Remove this bridge alone: the side without hosts is in F.
		w := n.wires[wi]
		for _, start := range []NodeID{w.A.Node, w.B.Node} {
			side := n.sideOf(start, wi)
			hasHost := false
			for _, v := range side {
				if n.nodes[v].kind == HostNode {
					hasHost = true
					break
				}
			}
			if !hasHost {
				for _, v := range side {
					out[v] = true
				}
			}
		}
	}
	return out
}

// sideOf floods from start without crossing wire blocked and returns the
// reached nodes.
func (n *Network) sideOf(start NodeID, blocked int) []NodeID {
	reached := make(map[NodeID]bool, 16)
	reached[start] = true
	queue := []NodeID{start}
	var out []NodeID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		out = append(out, u)
		for p, w := range n.portsOf(u) {
			wi := int(w)
			if wi < 0 || wi == blocked {
				continue
			}
			v := n.wires[wi].Other(End{u, p}).Node
			if !reached[v] {
				reached[v] = true
				queue = append(queue, v)
			}
		}
	}
	return out
}

// Core returns a copy of the network with F (and any wires touching F)
// removed, together with the mapping from new ids to original ids. This is
// the graph N−F that Theorem 1 proves the mapper reconstructs.
func (n *Network) Core() (*Network, map[NodeID]NodeID) {
	f := n.F()
	core := &Network{}
	old2new := make(map[NodeID]NodeID, len(n.nodes))
	new2old := make(map[NodeID]NodeID, len(n.nodes))
	for i := range n.nodes {
		id := NodeID(i)
		if f[id] {
			continue
		}
		var nid NodeID
		if n.nodes[i].kind == HostNode {
			nid = core.AddHost(n.nodes[i].name)
		} else {
			nid = core.AddSwitchRadix(n.nodes[i].name, n.NumPorts(NodeID(i)))
		}
		old2new[id] = nid
		new2old[nid] = id
	}
	for wi, w := range n.wires {
		if n.dead[wi] {
			continue
		}
		na, aok := old2new[w.A.Node]
		nb, bok := old2new[w.B.Node]
		if !aok || !bok {
			continue
		}
		core.MustConnect(na, w.A.Port, nb, w.B.Port)
	}
	for _, e := range n.Reflectors() {
		if nid, ok := old2new[e.Node]; ok {
			if err := core.AddReflector(nid, e.Port); err != nil {
				panic(err)
			}
		}
	}
	return core, new2old
}

// Filter returns a copy of the network containing only the nodes for which
// keep returns true, plus the wires whose both endpoints survive. Node ids
// are renumbered; the returned map translates new ids to originals.
func (n *Network) Filter(keep func(NodeID) bool) (*Network, map[NodeID]NodeID) {
	out := &Network{}
	old2new := make(map[NodeID]NodeID)
	new2old := make(map[NodeID]NodeID)
	for i := range n.nodes {
		id := NodeID(i)
		if !keep(id) {
			continue
		}
		var nid NodeID
		if n.nodes[i].kind == HostNode {
			nid = out.AddHost(n.nodes[i].name)
		} else {
			nid = out.AddSwitchRadix(n.nodes[i].name, n.NumPorts(NodeID(i)))
		}
		old2new[id] = nid
		new2old[nid] = id
	}
	for wi, w := range n.wires {
		if n.dead[wi] {
			continue
		}
		na, aok := old2new[w.A.Node]
		nb, bok := old2new[w.B.Node]
		if aok && bok {
			out.MustConnect(na, w.A.Port, nb, w.B.Port)
		}
	}
	for _, e := range n.Reflectors() {
		if nid, ok := old2new[e.Node]; ok {
			if err := out.AddReflector(nid, e.Port); err != nil {
				panic(err)
			}
		}
	}
	return out, new2old
}

// Eccentricity returns the largest finite BFS distance from src.
func (n *Network) Eccentricity(src NodeID) int {
	return n.Index().Eccentricity(src)
}
