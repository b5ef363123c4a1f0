package topology

import "sync"

// CSR (compressed sparse row) view of a Network.
//
// The pointer/map representation of Network is convenient to mutate but
// costly to traverse: every BFS allocates its own distance and queue
// slices, and every neighbour step chases node -> ports -> wires. At
// datacenter scale (1k-10k switches) those allocations dominate the graph
// analyses, so the analyses run on a flat index instead: adjacency entries
// packed in port order with per-node offsets, built once per Version() and
// cached on the Network. The index also pools reusable scratch arenas
// (distances, queues, DFS frames) sized at build time, so the traversals
// themselves stay allocation-free under the hotpath gates.
//
// The index is derived state: building or refreshing it does not count as
// a structural mutation and leaves Version() unchanged. Read-only means
// shareable: the index itself is immutable once built, every traversal
// borrows its own scratch from the pool, and the cache slot on the Network
// is an atomic pointer, so any number of goroutines may run analyses on one
// unchanging Network. Mutating a Network still needs exclusive access.

// Index is the flat adjacency view of a Network at one Version().
type Index struct {
	version uint64
	// off[i]..off[i+1] bounds node i's adjacency entries (cabled ports in
	// port order); nbr and wire give the neighbour node and wire index of
	// each entry.
	off  []int32
	nbr  []int32
	wire []int32
	// portOff[i] is the dense end id of (node i, port 0); every (node,
	// port) pair, cabled or not, has the unique id portOff[node]+port.
	portOff []int32
	kinds   []Kind
	// scratch pools *indexScratch values sized for this index, and
	// diamScratch *diameterScratch values, which only Diameter borrows.
	scratch, diamScratch sync.Pool
}

// indexScratch is the working set of one traversal, borrowed from the
// index's pool for the traversal's duration and reused across analyses.
type indexScratch struct {
	dist   []int32
	queue  []int32
	disc   []int32
	low    []int32
	frames []dfsFrame
}

// diameterScratch is Diameter's working set: the core's numbering, its
// graph and its per-node source bitsets, pooled apart so that the searches
// that only need a queue do not carry them.
type diameterScratch struct {
	coreOf, core    []int32
	coreOff         []int32
	coreAdj         []int32
	flags           []uint8
	seen, cur, next []uint64
}

type dfsFrame struct {
	node   int32
	inWire int32 // wire used to enter node, -1 for roots
	next   int32 // next adjacency entry to scan
}

// Index returns the CSR view of the network, rebuilding it only when the
// structural version has changed since the last call.
func (n *Network) Index() *Index {
	if ix := n.csr.Load(); ix != nil && ix.version == n.version {
		return ix
	}
	nn := len(n.nodes)
	ix := &Index{
		version: n.version,
		off:     make([]int32, nn+1),
		portOff: make([]int32, nn+1),
		kinds:   make([]Kind, nn),
	}
	ix.scratch.New = func() any {
		return &indexScratch{
			dist:   make([]int32, nn),
			queue:  make([]int32, 0, nn),
			disc:   make([]int32, nn),
			low:    make([]int32, nn),
			frames: make([]dfsFrame, 0, nn),
		}
	}
	ix.diamScratch.New = func() any {
		return &diameterScratch{
			coreOf: make([]int32, nn),
			core:   make([]int32, 0, nn),
			// off[0] stays 0: only later entries are written.
			coreOff: make([]int32, nn+1),
			coreAdj: make([]int32, 0, len(ix.nbr)),
			flags:   make([]uint8, nn),
			seen:    make([]uint64, nn),
			cur:     make([]uint64, nn),
			next:    make([]uint64, nn),
		}
	}
	entries := 0
	ends := int32(0)
	for i := range n.nodes {
		ix.kinds[i] = n.nodes[i].kind
		ix.portOff[i] = ends
		ports := n.portsOf(NodeID(i))
		ends += int32(len(ports))
		for _, w := range ports {
			if w >= 0 {
				entries++
			}
		}
		ix.off[i+1] = int32(entries)
	}
	ix.portOff[nn] = ends
	ix.nbr = make([]int32, entries)
	ix.wire = make([]int32, entries)
	k := 0
	for i := range n.nodes {
		for p, wi := range n.portsOf(NodeID(i)) {
			if wi < 0 {
				continue
			}
			other := n.wires[wi].Other(End{NodeID(i), p})
			ix.nbr[k] = int32(other.Node)
			ix.wire[k] = wi
			k++
		}
	}
	n.csr.Store(ix)
	return ix
}

// Version reports the Network version the index was built from.
func (ix *Index) Version() uint64 { return ix.version }

// NumNodes reports the node count.
//
//sanlint:hotpath
func (ix *Index) NumNodes() int { return len(ix.off) - 1 }

// Neighbors returns node id's neighbour nodes, one entry per cabled port
// in port order. The slice aliases the index; callers must not modify it.
//
//sanlint:hotpath
func (ix *Index) Neighbors(id NodeID) []int32 {
	return ix.nbr[ix.off[id]:ix.off[id+1]]
}

// Wires returns the wire index of each of node id's adjacency entries,
// parallel to Neighbors. The slice aliases the index.
//
//sanlint:hotpath
func (ix *Index) Wires(id NodeID) []int32 {
	return ix.wire[ix.off[id]:ix.off[id+1]]
}

// Degree reports the number of cabled ports of node id.
//
//sanlint:hotpath
func (ix *Index) Degree(id NodeID) int {
	return int(ix.off[id+1] - ix.off[id])
}

// KindOf reports the node kind.
//
//sanlint:hotpath
func (ix *Index) KindOf(id NodeID) Kind { return ix.kinds[id] }

// EndID returns the dense id of the (node, port) pair: ids enumerate every
// port of every node consecutively, so they index flat per-end tables.
//
//sanlint:hotpath
func (ix *Index) EndID(id NodeID, port int) int32 {
	return ix.portOff[id] + int32(port)
}

// NumEnds reports the total (node, port) pair count.
//
//sanlint:hotpath
func (ix *Index) NumEnds() int { return int(ix.portOff[len(ix.portOff)-1]) }

// BFSInto runs a breadth-first search from src and fills dist with hop
// distances (-1 when unreachable). dist must have NumNodes entries; the
// filled slice is returned.
//
//sanlint:hotpath
func (ix *Index) BFSInto(src NodeID, dist []int32) []int32 {
	sc := ix.scratch.Get().(*indexScratch)
	ix.bfs(src, dist, sc)
	ix.scratch.Put(sc)
	return dist
}

// bfs is BFSInto on a borrowed scratch's queue arena.
//
//sanlint:hotpath
func (ix *Index) bfs(src NodeID, dist []int32, sc *indexScratch) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || int(src) >= ix.NumNodes() {
		return dist
	}
	dist[src] = 0
	sc.queue = append(sc.queue[:0], int32(src))
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		du := dist[u]
		for _, v := range ix.nbr[ix.off[u]:ix.off[u+1]] {
			if dist[v] == -1 {
				dist[v] = du + 1
				sc.queue = append(sc.queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the largest finite BFS distance from src.
//
//sanlint:hotpath
func (ix *Index) Eccentricity(src NodeID) int {
	sc := ix.scratch.Get().(*indexScratch)
	e := ix.eccentricity(src, sc)
	ix.scratch.Put(sc)
	return e
}

//sanlint:hotpath
func (ix *Index) eccentricity(src NodeID, sc *indexScratch) int {
	e := int32(0)
	for _, d := range ix.bfs(src, sc.dist, sc) {
		if d > e {
			e = d
		}
	}
	return int(e)
}

// Diameter returns the largest finite BFS distance between any node pair,
// considering each component separately.
//
// Leaves are read off their neighbours. A leaf u (one cabled port, so
// every host) reaches everything through its one neighbour v, and no
// shortest path passes through a leaf, so distances between the other
// nodes — the core — are those of the core graph alone, and
//
//   - a core node c reaches a leaf on core node x at dist(c, x)+1, so
//     ecc(c) is the largest dist(c, x), plus one where x has a leaf;
//   - a leaf on c reaches every node but itself through c, so its
//     eccentricity is ecc(c)+1 when c's component holds a third node (a
//     second leaf on c, or a core neighbour), and ecc(c) = 1 otherwise;
//   - two leaves cabled to each other are a component of diameter 1.
//
// So only the core is searched, as one breadth-first search from 64
// sources at once: each core node holds a word, one bit per source, and a
// level ORs each node's neighbours' frontier words into it. The largest
// level a source's bit reaches, with the one-hop bonuses above, is the
// largest eccentricity of the source and its leaves. On a fabric where
// hosts outnumber switches the core is the switch graph.
//
//sanlint:hotpath
func (ix *Index) Diameter() int {
	sc := ix.diamScratch.Get().(*diameterScratch)
	d := ix.diameter(sc)
	ix.diamScratch.Put(sc)
	return d
}

// Per-core-node flags of diameter's search.
const (
	withLeaf  = 1 << iota // a leaf hangs off the node
	leafExtra             // and a leaf of it reaches a third node: its eccentricity is one more
)

//sanlint:hotpath
func (ix *Index) diameter(sc *diameterScratch) int {
	d := 0
	// Number the core, and settle leaf-leaf components on the way.
	coreOf := sc.coreOf
	sc.core = sc.core[:0]
	for u := 0; u < ix.NumNodes(); u++ {
		coreOf[u] = -1
		if ix.Degree(NodeID(u)) != 1 {
			coreOf[u] = int32(len(sc.core))
			sc.core = append(sc.core, int32(u))
		} else if ix.Degree(NodeID(ix.nbr[ix.off[u]])) == 1 {
			d = 1
		}
	}
	// The core graph, self-loops dropped, in core ordinals; and the flags.
	core := sc.core
	off, flags := sc.coreOff[:len(core)+1], sc.flags[:len(core)]
	sc.coreAdj = sc.coreAdj[:0]
	for c, u := range core {
		leaves, others := 0, 0
		for _, v := range ix.nbr[ix.off[u]:ix.off[u+1]] {
			switch {
			case v == u:
			case coreOf[v] < 0:
				leaves++
			default:
				sc.coreAdj = append(sc.coreAdj, coreOf[v])
				others++
			}
		}
		flags[c] = 0
		if leaves > 0 {
			flags[c] = withLeaf
			if leaves > 1 || others > 0 {
				flags[c] |= leafExtra
			}
		}
		off[c+1] = int32(len(sc.coreAdj))
	}
	adj := sc.coreAdj
	seen, cur, next := sc.seen[:len(core)], sc.cur[:len(core)], sc.next[:len(core)]
	for base := 0; base < len(core); base += 64 {
		var extra, reach, leafReach uint64
		for c := range core {
			seen[c] = 0
			if b := c - base; b >= 0 && b < 64 {
				seen[c] = 1 << b
				reach |= seen[c]
				if flags[c]&withLeaf != 0 {
					leafReach |= seen[c]
				}
				if flags[c]&leafExtra != 0 {
					extra |= seen[c]
				}
			}
			cur[c] = seen[c]
		}
		for level := 0; reach != 0; level++ {
			// reach holds the sources that reach a node first at this
			// level, leafReach those of them that reach a node with a
			// leaf: the node is level away, its leaf one more, and the
			// leaves of a source with leafExtra one more still.
			e := level
			if reach&extra != 0 || leafReach != 0 {
				e++
			}
			if leafReach&extra != 0 {
				e++
			}
			d = max(d, e)
			reach, leafReach = 0, 0
			for c := range core {
				var w uint64
				for _, y := range adj[off[c]:off[c+1]] {
					w |= cur[y]
				}
				w &^= seen[c]
				next[c] = w
				reach |= w
				if flags[c]&withLeaf != 0 {
					leafReach |= w
				}
			}
			for c, w := range next {
				seen[c] |= w
			}
			cur, next = next, cur
		}
	}
	return d
}

// ComponentsInto fills label with a component id per node and returns the
// component count. label must have NumNodes entries.
//
//sanlint:hotpath
func (ix *Index) ComponentsInto(label []int32) int {
	sc := ix.scratch.Get().(*indexScratch)
	count := ix.components(label, sc)
	ix.scratch.Put(sc)
	return count
}

//sanlint:hotpath
func (ix *Index) components(label []int32, sc *indexScratch) int {
	for i := range label {
		label[i] = -1
	}
	count := int32(0)
	for i := range label {
		if label[i] != -1 {
			continue
		}
		label[i] = count
		sc.queue = append(sc.queue[:0], int32(i))
		for head := 0; head < len(sc.queue); head++ {
			u := sc.queue[head]
			for _, v := range ix.nbr[ix.off[u]:ix.off[u+1]] {
				if label[v] == -1 {
					label[v] = count
					sc.queue = append(sc.queue, v)
				}
			}
		}
		count++
	}
	return int(count)
}

// BridgesInto appends the indices of all bridge wires to out (in the same
// DFS discovery order as Network.Bridges) and returns it. Self-loop cables
// and wires with a parallel twin are never bridges; the DFS tracks the
// wire used to enter a node rather than the parent node, which makes it
// correct on multigraphs.
//
//sanlint:hotpath
func (ix *Index) BridgesInto(out []int32) []int32 {
	sc := ix.scratch.Get().(*indexScratch)
	out = ix.bridges(out, sc)
	ix.scratch.Put(sc)
	return out
}

//sanlint:hotpath
func (ix *Index) bridges(out []int32, sc *indexScratch) []int32 {
	const unvisited = -1
	for i := range sc.disc {
		sc.disc[i] = unvisited
	}
	timer := int32(0)
	for root := 0; root < ix.NumNodes(); root++ {
		if sc.disc[root] != unvisited {
			continue
		}
		sc.frames = append(sc.frames[:0], dfsFrame{node: int32(root), inWire: -1, next: ix.off[root]})
		sc.disc[root] = timer
		sc.low[root] = timer
		timer++
		for len(sc.frames) > 0 {
			f := &sc.frames[len(sc.frames)-1]
			u := f.node
			advanced := false
			for ; f.next < ix.off[u+1]; f.next++ {
				wi := ix.wire[f.next]
				if wi == f.inWire {
					continue
				}
				v := ix.nbr[f.next]
				if v == u {
					continue // self-loop cable: irrelevant to connectivity
				}
				if sc.disc[v] == unvisited {
					sc.disc[v] = timer
					sc.low[v] = timer
					timer++
					f.next++
					sc.frames = append(sc.frames, dfsFrame{node: v, inWire: wi, next: ix.off[v]})
					advanced = true
					break
				}
				if sc.disc[v] < sc.low[u] {
					sc.low[u] = sc.disc[v]
				}
			}
			if advanced {
				continue
			}
			// u is fully explored; pop and propagate low-link.
			inWire := f.inWire
			sc.frames = sc.frames[:len(sc.frames)-1]
			if len(sc.frames) > 0 {
				p := sc.frames[len(sc.frames)-1].node
				if sc.low[u] < sc.low[p] {
					sc.low[p] = sc.low[u]
				}
				if sc.low[u] > sc.disc[p] {
					out = append(out, inWire)
				}
			}
		}
	}
	return out
}
