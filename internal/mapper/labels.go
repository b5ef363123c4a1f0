package mapper

import (
	"fmt"
	"sort"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// This file implements the simplified algorithm of §3.1 exactly as used in
// the paper's proof of Theorem 1: the model graph M stays a tree (one
// vertex per successful probe string), replicates are never merged as
// objects — they are only given equal labels — and the final answer is the
// quotient graph M / L. It is exponential in the depth bound and exists as
// an executable specification against which tests check the production
// algorithm in mapper.go.

// tnode is a vertex of the probe tree M.
type tnode struct {
	id     int
	kind   topology.Kind
	name   string
	route  simnet.Route
	parent *tnode
	// turn is the turn under which this node hangs off its parent (0 for
	// the root host and the root switch).
	turn simnet.Turn
	// children maps the discovering turn to the child vertex; together with
	// the parent edge at relative index 0 this is the neighbors array.
	children map[simnet.Turn]*tnode

	// Union-find over labels, with the Lemma 2 indexing offsets: index i in
	// this node's frame is index i+lshift in lforward's frame.
	lforward *tnode
	lshift   int
}

func lfind(n *tnode) (*tnode, int) {
	if n.lforward == nil {
		return n, 0
	}
	root, s := lfind(n.lforward)
	n.lforward = root
	n.lshift += s
	return root, n.lshift
}

// LabelRun executes the §3.1 algorithm: EXPLORE (full tree to the depth
// bound), MERGE (label propagation to a fixed point), PRUNE, and returns
// the quotient M/L as a network. It sends every probe pair for every tree
// vertex and is therefore only suitable for small networks and tests.
func LabelRun(p simnet.Prober, depth int) (*Map, error) {
	if depth < 1 {
		return nil, fmt.Errorf("mapper: depth must be >= 1, got %d: %w", depth, ErrDepthExceeded)
	}
	start := p.Clock()
	nextID := 0
	newNode := func(kind topology.Kind, name string, route simnet.Route, parent *tnode) *tnode {
		n := &tnode{id: nextID, kind: kind, name: name, route: route, parent: parent,
			children: make(map[simnet.Turn]*tnode)}
		nextID++
		return n
	}

	// INITIALIZATION: root host-vertex and its adjacent switch-vertex.
	h0 := newNode(topology.HostNode, p.LocalHost(), simnet.Route{}, nil)
	root := newNode(topology.SwitchNode, "", simnet.Route{}, h0)
	h0.children[0] = root // host's single port; turn key unused for hosts
	var all []*tnode
	all = append(all, h0, root)

	// EXPLORE: plain BFS over probe strings, no dedup, no elimination.
	frontier := []*tnode{root}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		if len(v.route) >= depth {
			continue
		}
		for t := simnet.Turn(-simnet.MaxTurn); t <= simnet.MaxTurn; t++ {
			if t == 0 {
				continue
			}
			probeStr := v.route.Extend(t)
			var child *tnode
			if res := simnet.Do(p, simnet.Probe{Kind: simnet.ProbeHost, Route: probeStr}); res.OK {
				child = newNode(topology.HostNode, res.Host, probeStr, v)
			} else if simnet.Do(p, simnet.Probe{Kind: simnet.ProbeSwitch, Route: probeStr}).OK {
				child = newNode(topology.SwitchNode, "", probeStr, v)
				frontier = append(frontier, child)
			} else {
				continue
			}
			child.turn = t
			v.children[t] = child
			all = append(all, child)
		}
	}

	// MERGE: seed with host-name equalities, then propagate until stable.
	// Host vertices have a single port, so same-name hosts union at shift 0.
	byName := make(map[string]*tnode)
	for _, n := range all {
		if n.kind != topology.HostNode {
			continue
		}
		if prev, ok := byName[n.name]; ok {
			unionLabels(prev, n, 0)
		} else {
			byName[n.name] = n
		}
	}
	for {
		changed := false
		// For every class, collect the edges incident to its members keyed
		// by class-frame index; two members reaching differently-labelled
		// far ends through one index is the mergeLabels deduction.
		type farRef struct {
			node *tnode
			idx  int // far-end index in the far node's own frame
		}
		classSlots := make(map[*tnode]map[int]farRef)
		consider := func(u *tnode, iu int, w *tnode, iw int) {
			ru, su := lfind(u)
			slot := iu + su
			slots := classSlots[ru]
			if slots == nil {
				slots = make(map[int]farRef)
				classSlots[ru] = slots
			}
			prev, ok := slots[slot]
			if !ok {
				slots[slot] = farRef{node: w, idx: iw}
				return
			}
			rw1, _ := lfind(prev.node)
			rw2, _ := lfind(w)
			// Both far ends are the one actual port cabled to this slot, so
			// their classes merge, aligning w-frame index iw with
			// prev-frame index prev.idx (unionLabels handles class shifts).
			if rw1 != rw2 {
				unionLabels(prev.node, w, prev.idx-iw)
				changed = true
			}
		}
		for _, n := range all {
			// Parent edge: at n's frame index 0, at parent's frame index =
			// discovering turn (or 0 when the parent is the root host).
			if n.parent != nil {
				pt := turnOf(n)
				consider(n, 0, n.parent, int(pt))
				consider(n.parent, int(pt), n, 0)
			}
		}
		if !changed {
			break
		}
	}

	// Quotient M/L, then PRUNE degree-1 switch classes iteratively.
	type cedge struct {
		a, b   *tnode
		ai, bi int
	}
	edgeSet := make(map[[4]int]cedge) // canonical key: ids+indices
	classID := make(map[*tnode]int)
	for _, n := range all {
		r, _ := lfind(n)
		if _, ok := classID[r]; !ok {
			classID[r] = len(classID)
		}
	}
	addQuotientEdge := func(u *tnode, iu int, w *tnode, iw int) {
		ru, su := lfind(u)
		rw, sw := lfind(w)
		a, ai, b, bi := ru, iu+su, rw, iw+sw
		if classID[a] > classID[b] || (classID[a] == classID[b] && ai > bi) {
			a, ai, b, bi = b, bi, a, ai
		}
		key := [4]int{classID[a], ai, classID[b], bi}
		edgeSet[key] = cedge{a: a, ai: ai, b: b, bi: bi}
	}
	for _, n := range all {
		if n.parent != nil {
			addQuotientEdge(n, 0, n.parent, int(turnOf(n)))
		}
	}

	// Prune: degree per class, delete degree<=1 switch classes repeatedly.
	dead := make(map[*tnode]bool)
	for {
		deg := make(map[*tnode]int)
		for _, e := range edgeSet {
			if dead[e.a] || dead[e.b] {
				continue
			}
			deg[e.a]++
			deg[e.b]++
		}
		deleted := false
		for _, n := range all {
			r, _ := lfind(n)
			if dead[r] || r.kindOfClass() != topology.SwitchNode {
				continue
			}
			if deg[r] <= 1 {
				dead[r] = true
				deleted = true
			}
		}
		if !deleted {
			break
		}
	}

	// Export to a topology.Network, normalising indices per class window.
	// Iterate edges by sorted canonical key so switch naming and wire order
	// do not depend on map iteration order.
	edgeKeys := make([][4]int, 0, len(edgeSet))
	for k := range edgeSet {
		edgeKeys = append(edgeKeys, k)
	}
	sort.Slice(edgeKeys, func(i, j int) bool {
		for x := 0; x < 4; x++ {
			if edgeKeys[i][x] != edgeKeys[j][x] {
				return edgeKeys[i][x] < edgeKeys[j][x]
			}
		}
		return false
	})
	net := &topology.Network{}
	classNode := make(map[*tnode]topology.NodeID)
	classLo := make(map[*tnode]int)
	// Window per class from the surviving quotient edges.
	minIdx := make(map[*tnode]int)
	maxIdx := make(map[*tnode]int)
	note := func(c *tnode, i int) {
		if _, ok := minIdx[c]; !ok {
			minIdx[c], maxIdx[c] = i, i
			return
		}
		if i < minIdx[c] {
			minIdx[c] = i
		}
		if i > maxIdx[c] {
			maxIdx[c] = i
		}
	}
	for _, k := range edgeKeys {
		e := edgeSet[k]
		if dead[e.a] || dead[e.b] {
			continue
		}
		note(e.a, e.ai)
		note(e.b, e.bi)
	}
	sw := 0
	getNode := func(c *tnode) topology.NodeID {
		if id, ok := classNode[c]; ok {
			return id
		}
		var id topology.NodeID
		if c.kindOfClass() == topology.HostNode {
			id = net.AddHost(c.classHostName())
		} else {
			id = net.AddSwitch(fmt.Sprintf("l%d", sw))
			sw++
		}
		classNode[c] = id
		classLo[c] = -minIdx[c]
		return id
	}
	for _, k := range edgeKeys {
		e := edgeSet[k]
		if dead[e.a] || dead[e.b] {
			continue
		}
		a := getNode(e.a)
		b := getNode(e.b)
		pa, pb := 0, 0
		if e.a.kindOfClass() == topology.SwitchNode {
			pa = e.ai + classLo[e.a]
		}
		if e.b.kindOfClass() == topology.SwitchNode {
			pb = e.bi + classLo[e.b]
		}
		if _, err := net.Connect(a, pa, b, pb); err != nil {
			return nil, fmt.Errorf("mapper: label export: %w", err)
		}
	}
	mapperID := net.Lookup(p.LocalHost())
	if mapperID == topology.None {
		return nil, fmt.Errorf("mapper: label algorithm lost the mapping host")
	}
	st := Stats{Elapsed: p.Clock() - start, Probes: p.Stats()}
	return &Map{Network: net, Mapper: mapperID, Stats: st}, nil
}

// unionLabels merges the class of b into the class of a such that b-frame
// index j equals a-frame index j+shift.
func unionLabels(a, b *tnode, shift int) {
	ra, sa := lfind(a)
	rb, sb := lfind(b)
	s := shift + sa - sb
	if ra == rb {
		return
	}
	if rb.id < ra.id {
		ra, rb, s = rb, ra, -s
	}
	rb.lforward = ra
	rb.lshift = s
}

// turnOf returns the turn under which n hangs off its parent (0 when the
// parent is the mapper host).
func turnOf(n *tnode) simnet.Turn {
	if n.parent == nil {
		return 0
	}
	return n.turn
}

// kindOfClass returns the node kind of the class root.
func (n *tnode) kindOfClass() topology.Kind { return n.kind }

// classHostName returns the host name of the class root.
func (n *tnode) classHostName() string { return n.name }
