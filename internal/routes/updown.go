package routes

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Config parameterises route computation.
type Config struct {
	// Root forces the UP*/DOWN* root switch; topology.None selects the
	// paper's natural root (the switch as far away from all hosts as
	// possible, ignoring the utility host).
	Root topology.NodeID
	// IgnoreHosts are excluded when choosing the root ("we ignore the
	// specially-designated utility host when picking a switch distant from
	// all hosts").
	IgnoreHosts []topology.NodeID
}

// DefaultConfig runs the paper's §5.5 pipeline from its natural root.
// Among parallel wires every route takes the first in wire order.
func DefaultConfig() Config {
	return Config{Root: topology.None}
}

// Table is a computed route set: one relative-turn source route per ordered
// host pair, held in one flat turn arena per leaf switch (doc.go has the
// layout's rationale). The wires a route takes are not stored: the map and
// the turns fix them, and WirePath walks them on demand over a snapshot of
// Net's wiring taken when the table was built.
//
// A Table is logically immutable: Compute and ShortestPaths fix what every
// leaf switch's routes are built from, and a leaf's part of the table — its
// templates, its cells and the arena for its hosts' rows — is built the
// first time a lookup from one of its hosts reads it. Each host's row is
// written by the first lookup from that host. Lookups from any number of
// goroutines are safe.
type Table struct {
	Net    *topology.Network
	Root   topology.NodeID
	Labels []int64 // BFS labels after dominant relabelling
	// Dominant lists switches that were locally dominant before the fix.
	Dominant []topology.NodeID

	// hosts lists the hosts in ascending id order, and ord[v] is node v's
	// place among them (doc on hostOrd). For host ordinal i, lord[i] is
	// its leaf's ordinal, port[i] the port it occupies there and start[i]
	// where its row starts in the leaf's arena, set when the row is
	// written. The route of ordered pair (s, d) is the cell of d in s's
	// row, empty on the diagonal.
	hosts []topology.NodeID
	ord   []hostOrd
	lord  []int32
	port  []simnet.Turn
	start []uint32
	leaf  []leaf
	ends  ends // what WirePath walks and leaves are built from

	mu sync.Mutex // serialises leaf builds and row writes
	// build builds host i's leaf and writes i's row: buildLeaf, held as a
	// func value because it allocates (the leaf's cells and arena, once
	// per leaf) and writeRow's body must not.
	build func(i int)
	b     *builder // what leaves are built from; nil once every leaf is
}

// hostOrd is a node's leaf and host ordinal, nil and -1 for a switch, its
// rank among the leaf's hosts (the leaf's arena holds their rows in rank
// order) and its row's start in the leaf's arena: -1 until the row is
// written. row publishes the row, and the leaf with its first row: writers
// store it, under Table.mu, after the row, so a lookup that loads a start
// reads a finished row and leaf.
type hostOrd struct {
	lf       *leaf
	at, rank int32
	row      atomic.Int64
}

// leaf is one leaf switch's part of a table. A row from any of its hosts
// holds one cell per host in ascending order, its own one turn long, and
// the cells' lengths depend on the leaf alone: cells[d] is where host
// ordinal d's cell starts in each of those rows and cells[H] is their
// length. turns holds the rows, nil until the leaf is built; first is the
// host ordinal of a written row, the one later rows are copied from. A leaf
// carries its own copy of the table's wiring snapshot, so a walk reads
// both through one pointer.
type leaf struct {
	ends
	turns        []simnet.Turn
	cells        []uint32
	hosts, first int32
}

// builder is what a table's leaves are built from, and the scratch they
// are built in; only leaf builds touch it, under Table.mu. paths and tmpl
// hold the templates of the leaf being built: the route to leaf j's hosts
// is tmpl[paths[j].lo:][:paths[j].n]. cells and turns hand out the leaves'
// cells and arenas.
type builder struct {
	leaves []topology.NodeID // each leaf ordinal's switch
	left   int               // leaves not built yet
	paths  []leafPath
	tmpl   []simnet.Turn
	cells  chunks[uint32]
	turns  chunks[simnet.Turn]

	// UP*/DOWN* (Compute; up is nil for ShortestPaths): the switch
	// ordinal of every switch (they ascend with node ids), up[i*S+j], the
	// shortest up-only distance between switch ordinals i and j, and
	// via[i*S+j], the end the first wire of that path leaves i by. upAt
	// memoises the leaves' up paths: upAt[l*S+w] is leaf l's up path to
	// switch w in ups, or -1. anc and meet are scratch.
	S       int
	sw      []int32
	up, via []int32
	upAt    []int32
	ups     []upPath
	upTurns []simnet.Turn
	anc     []int32
	meet    []int32

	// ShortestPaths: the search's scratch.
	dist, prevEnd []int32
	queue         []topology.NodeID
}

// chunks hands out slices carved from chunks it allocates. A chunk is at
// least twice the last one, but no larger than the caller's estimate of
// what is still to come: a lookup that builds one leaf allocates that
// leaf's size, and a walk that builds all of them a few chunks, not one a
// leaf (one allocation a leaf cost the full fill about a tenth of its
// time).
type chunks[T any] struct {
	free []T
	last int
}

// take returns n zeroed elements; most is the estimate of what this and
// every later take will need.
func (c *chunks[T]) take(n, most int) []T {
	if len(c.free) < n {
		c.last = max(n, min(2*c.last, most))
		c.free = make([]T, c.last)
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// newTable returns a table over net's hosts with no leaf built. Every host
// gets its leaf, the switch across its wire; leaves get dense ordinals in
// the order their first host appears.
func newTable(net *topology.Network, root topology.NodeID) (*Table, error) {
	n, hosts := net.NumNodes(), net.Hosts()
	H := len(hosts)
	t := &Table{Net: net, Root: root, hosts: hosts, ord: make([]hostOrd, n), ends: newEnds(net),
		lord: make([]int32, H), port: make([]simnet.Turn, H), start: make([]uint32, H), b: &builder{}}
	for i := range t.ord {
		t.ord[i].at = -1
		t.ord[i].row.Store(-1)
	}
	lordOf := make([]int32, n) // a switch's leaf ordinal + 1; 0 if it has no host
	for i, h := range hosts {
		far, ok := net.Neighbor(h, topology.HostPort)
		if !ok || net.KindOf(far.Node) != topology.SwitchNode {
			return nil, fmt.Errorf("routes: host %s is not cabled to a switch", net.NameOf(h))
		}
		if lordOf[far.Node] == 0 {
			t.b.leaves = append(t.b.leaves, far.Node)
			t.leaf = append(t.leaf, leaf{ends: t.ends, first: -1})
			lordOf[far.Node] = int32(len(t.b.leaves))
		}
		l := lordOf[far.Node] - 1
		t.ord[h].at, t.ord[h].rank = int32(i), t.leaf[l].hosts
		t.lord[i], t.port[i] = l, simnet.Turn(far.Port)
		t.leaf[l].hosts++
	}
	most := int32(0)
	for i, h := range hosts {
		t.ord[h].lf = &t.leaf[t.lord[i]]
		most = max(most, t.ord[h].lf.hosts)
	}
	// A template crosses each switch at most once on either side of its
	// meeting node, so it is under 2S turns: a leaf's arena, its hosts'
	// rows, is under hosts·H·2S turns, and offsets into it are 32 bits.
	if bound := uint64(most) * uint64(H) * uint64(2*net.NumSwitches()); bound > math.MaxUint32 {
		return nil, fmt.Errorf("routes: %d hosts' routes may take %d turns per leaf, more than a table holds", H, bound)
	}
	t.b.left, t.b.paths = len(t.leaf), make([]leafPath, len(t.leaf))
	t.build = t.buildLeaf
	return t, nil
}

// ChooseRoot picks the UP*/DOWN* root: the switch maximising the minimum
// distance to any (non-ignored) host, tie-broken by maximum total distance
// then lowest id. This "picks a natural root of the network and allows
// packets to flow up to the least common ancestor of a source and
// destination".
//
// A host has one wire, so its distance from any switch is its own switch's
// distance plus one: only the switch graph is searched, each switch with
// hosts counting once, weighted by its non-ignored hosts. The search runs
// from 64 switches at once, as Index.Diameter's does: each switch holds a
// word, one bit per source, and a level ORs each switch's neighbours'
// frontier words into it. A source's bit first reaching a switch with
// hosts at level d adds d+1 per host to the source's total; the first such
// level is its minimum.
func ChooseRoot(net *topology.Network, ignore ...topology.NodeID) topology.NodeID {
	swNode := net.Switches()
	S := len(swNode)
	sw := make([]int32, net.NumNodes())
	for i := range sw {
		sw[i] = -1
	}
	for i, s := range swNode {
		sw[s] = int32(i)
	}
	// weight[i]: the non-ignored hosts cabled to switch i.
	weight := make([]int, S)
	for _, h := range net.Hosts() {
		s, _, ok := net.HostSwitch(h)
		if !ok || sw[s] < 0 || slices.Contains(ignore, h) {
			continue // unreachable from every switch, or ignored
		}
		weight[sw[s]]++
	}
	// The switch graph in CSR form, over switch ordinals.
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
	// minD[i] is 0 until source i reaches a switch with hosts.
	minD, sumD := make([]int, S), make([]int, S)
	words := make([]uint64, 3*S)
	seen, cur, next := words[:S], words[S:2*S], words[2*S:]
	for base := 0; base < S; base += 64 {
		for c := range S {
			seen[c] = 0
			if b := c - base; b >= 0 && b < 64 {
				seen[c] = 1 << b
			}
			cur[c] = seen[c]
		}
		for level := 1; ; level++ {
			// cur holds, per switch, the sources first reaching it at
			// distance level-1: its hosts are level away from them.
			var reach uint64
			for c, w := range cur {
				reach |= w
				if weight[c] == 0 {
					continue
				}
				for ; w != 0; w &= w - 1 {
					src := base + bits.TrailingZeros64(w)
					if minD[src] == 0 {
						minD[src] = level
					}
					sumD[src] += weight[c] * level
				}
			}
			if reach == 0 {
				break
			}
			for c := range S {
				var w uint64
				for _, y := range adj[adjOff[c]:adjOff[c+1]] {
					w |= cur[y]
				}
				next[c] = w &^ seen[c]
			}
			for c, w := range next {
				seen[c] |= w
			}
			cur, next = next, cur
		}
	}
	best := topology.None
	bestMin, bestSum := -1, -1
	for i, s := range swNode {
		if minD[i] == 0 {
			continue
		}
		if minD[i] > bestMin || (minD[i] == bestMin && sumD[i] > bestSum) {
			best, bestMin, bestSum = s, minD[i], sumD[i]
		}
	}
	return best
}

// Compute runs the §5.5 pipeline on a network (typically a mapper output)
// up to the up-only closure and returns the route table; each leaf
// switch's routes are built by the first lookup from one of its hosts.
// Every error Compute can give, it gives here: a leaf's build cannot fail
// (doc.go).
func Compute(net *topology.Network, cfg Config) (*Table, error) {
	if net.NumHosts() < 2 {
		return nil, fmt.Errorf("routes: need at least two hosts, have %d", net.NumHosts())
	}
	if !net.IsConnected() {
		return nil, fmt.Errorf("routes: network is disconnected")
	}
	root := cfg.Root
	if root == topology.None {
		root = ChooseRoot(net, cfg.IgnoreHosts...)
	}
	if root == topology.None || net.KindOf(root) != topology.SwitchNode {
		return nil, fmt.Errorf("routes: no usable root switch")
	}
	t, err := newTable(net, root)
	if err != nil {
		return nil, err
	}
	t.label()
	t.closeUp()
	return t, nil
}

// label assigns BFS numbers from the root ("a breadth-first labeling of the
// network map") and applies the paper's fix for locally dominant switches
// ("relabelling them with the minimum of their neighbors' BFS labels minus
// one").
// Labels are int64 so relabelled switches can sink below 0 without clashes.
func (t *Table) label() {
	n := t.Net.NumNodes()
	t.Labels = make([]int64, n)
	ix := t.Net.Index()
	order := make([]topology.NodeID, 0, n)
	seen := make([]bool, n)
	queue := []topology.NodeID{t.Root}
	seen[t.Root] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		// CSR adjacency lists cabled ports in port order — the same visit
		// order as the historical per-port scan.
		for _, v := range ix.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, topology.NodeID(v))
			}
		}
	}
	for i, u := range order {
		t.Labels[u] = int64(i)
	}
	// A locally dominant switch has a larger label than every neighbour:
	// all its links run down into it, so no UP*/DOWN* route can transit it.
	// Relabel with min(neighbour labels) − 1; iterate (bounded) because a
	// fix can expose a new dominant switch.
	for iter := 0; iter < n*n; iter++ {
		fixed := false
		for _, s := range t.Net.Switches() {
			if s == t.Root {
				continue
			}
			minN, dominant := int64(math.MaxInt64), true
			for _, v := range ix.Neighbors(s) {
				if topology.NodeID(v) == s {
					continue
				}
				if t.Labels[v] < minN {
					minN = t.Labels[v]
				}
				if t.Labels[v] > t.Labels[s] {
					dominant = false
				}
			}
			if dominant && minN != math.MaxInt64 {
				if iter == 0 {
					t.Dominant = append(t.Dominant, s)
				}
				t.Labels[s] = minN - 1
				fixed = true
			}
		}
		if !fixed {
			return
		}
	}
}

// isUp reports whether crossing a wire from end `from` to end `to` is an "up"
// move (toward a smaller label; a valid route is up moves then down moves).
func (t *Table) isUp(from, to topology.End) bool {
	return t.Labels[to.Node] < t.Labels[from.Node]
}

// closeUp closes the up-only distances over the switches with the
// Floyd-Warshall construction the paper cites, recording first hops: the
// part of the all-pairs pass every leaf's routes are built from. A
// compliant s→t path is up to some meeting node w then down, and a down
// path w→t is an up path t→w reversed, so cost(s,t) = min_w U[s][w]+U[t][w].
//
// A host's only arc is its own wire, and it points up (BFS labels a host
// after its switch, and relabelling only lowers switches). So hosts are
// never meeting or transit nodes, FW runs over switches alone, and the pair
// (s,t) is s's wire, the path of the leaf-switch pair (leaf(s), leaf(t)),
// then t's wire: meetFrom picks the meeting nodes of one leaf's pairs when
// the leaf is built.
func (t *Table) closeUp() {
	net, b := t.Net, t.b
	// Switch ordinals ascend with node ids, so scanning ordinals keeps the
	// node-order tie-breaks of a scan over all nodes.
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
	// Direct up arcs. Parallel wires: keep the first.
	ix := t.ends.ix
	net.WiresIndexed(func(wi int, w topology.Wire) {
		if w.A.Node == w.B.Node || net.KindOf(w.A.Node) != topology.SwitchNode || net.KindOf(w.B.Node) != topology.SwitchNode {
			return // loopback cables are never on shortest paths; host wires are added per pair
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
		upk := up[k*S : k*S+S]
		for i := 0; i < S; i++ {
			uik := up[i*S+k]
			if uik == inf {
				continue
			}
			row, vrow := up[i*S:i*S+S], via[i*S:i*S+S]
			for j, ukj := range upk {
				if d := uik + ukj; d < row[j] {
					row[j], vrow[j] = d, vrow[k]
				}
			}
		}
	}
	b.S, b.sw, b.up, b.via = S, sw, up, via
}

// inf is an up-only distance that is no path; two of them still add up
// within an int32.
const inf = int32(math.MaxInt32 / 4)

// buildLeaf builds the leaf of host ordinal si — its templates, its cells
// and the arena for its hosts' rows — and writes si's row from the
// templates. Called by writeRow, under t.mu.
func (t *Table) buildLeaf(si int) {
	b, l := t.b, int(t.lord[si])
	if b.up != nil {
		b.meetFrom(t, l)
	} else {
		b.searchFrom(t, l)
	}
	// Each host's cell is its leaf pair's template long, so the cells of
	// a row depend on its leaf alone.
	H, lf := len(t.hosts), &t.leaf[l]
	lf.cells = b.cells.take(H+1, (H+1)*b.left)
	pos := uint32(0)
	for di, j := range t.lord {
		lf.cells[di] = pos
		pos += uint32(b.paths[j].n)
	}
	lf.cells[H] = pos
	lf.turns = b.turns.take(int(lf.hosts)*int(pos), int(lf.hosts)*int(pos)*b.left)
	t.start[si] = uint32(t.ord[t.hosts[si]].rank) * pos
	t.fromTemplates(lf.turns[t.start[si]:][:pos], si)
	lf.first = int32(si)
	if b.left--; b.left == 0 {
		t.b = nil // every leaf is built: drop the closure and the scratch
	}
}

// meetFrom writes the templates of every route from leaf i. Each leaf pair
// picks its meeting node — first strict minimum over ascending switches —
// and the best cost is the exact length of its middle, so the templates'
// arena is sized before it is written. Each leaf's up path to each meeting
// node it uses is extracted once, whichever leaf's build first needs it,
// and a template is the source leaf's up path, the turn at the meeting
// node, and the destination leaf's up path reversed.
func (b *builder) meetFrom(t *Table, i int) {
	S := b.S
	if b.upAt == nil { // the first leaf built
		b.upAt, b.meet = make([]int32, len(b.leaves)*S), make([]int32, len(b.leaves))
		for k := range b.upAt {
			b.upAt[k] = -1
		}
	}
	upA := b.up[int(b.sw[b.leaves[i]])*S:][:S]
	// The source leaf's up-reachable switches, itself included, in
	// ascending order: the only candidate meeting nodes, a short list on
	// real fabrics.
	b.anc = b.anc[:0]
	for w, d := range upA {
		if d < inf {
			b.anc = append(b.anc, int32(w))
		}
	}
	n := int32(0)
	for j, node := range b.leaves {
		p := &b.paths[j]
		p.lo, p.n = n, 1
		n++
		if j == i {
			continue
		}
		// The root is up-reachable from every leaf (doc.go), so some
		// candidate has a finite cost and the scan always finds a node.
		upB := b.up[int(b.sw[node])*S:][:S]
		bestW, bestC := int32(0), inf
		for _, w := range b.anc {
			if c := upA[w] + upB[w]; c < bestC {
				bestC, bestW = c, w
			}
		}
		b.meet[j], p.n = bestW, bestC+1
		n += bestC
		b.upTo(t, i, int(bestW))
		b.upTo(t, j, int(bestW))
	}
	b.tmpl = slices.Grow(b.tmpl[:0], int(n)+tmplPad)[:int(n)+tmplPad]
	for j := range b.leaves {
		if j == i {
			b.tmpl[b.paths[j].lo] = 0 // the one turn between two hosts of the leaf, before their ports
			continue
		}
		p, w := b.paths[j], int(b.meet[j])
		src, dst := b.ups[b.upAt[i*S+w]], b.ups[b.upAt[j*S+w]]
		cell := b.tmpl[p.lo : p.lo+p.n]
		copy(cell, b.upTurns[src.lo:src.lo+src.n])
		cell[src.n] = dst.in - src.in
		copy(cell[src.n+1:], b.upTurns[dst.lo+dst.n:dst.lo+2*dst.n])
	}
}

// upTo makes sure leaf l's up path to switch ordinal w is extracted, both
// ways round.
func (b *builder) upTo(t *Table, l, w int) {
	S := b.S
	if b.upAt[l*S+w] >= 0 {
		return
	}
	b.upAt[l*S+w] = int32(len(b.ups))
	a := int(b.sw[b.leaves[l]])
	n := int(b.up[a*S+w])
	lo := len(b.upTurns)
	b.upTurns = slices.Grow(b.upTurns, 2*n)[:lo+2*n]
	in := b.climb(t, b.upTurns[lo:lo+n], a, w)
	for h, x := range b.upTurns[lo : lo+n] {
		b.upTurns[lo+2*n-1-h] = -x
	}
	b.ups = append(b.ups, upPath{lo: int32(lo), n: int32(n), in: in})
}

// upPath locates a leaf's up path to a meeting node in an arena of turns:
// from lo, its n turns as a template from the leaf would start — the raw
// port it leaves the leaf by, then the turn at each switch before the
// meeting node — then the same n turns as a template to the leaf would end
// (the path reversed, each turn negated: the last is minus the port it
// enters the leaf by). in is the port it arrives at the meeting node on,
// 0 if the leaf is the meeting node.
type upPath struct {
	lo, n int32
	in    simnet.Turn
}

// climb writes into turns, len(turns) of them, the recorded up path from
// switch ordinal a to w as the first half of an upPath, and returns the
// port it arrives at w on. First-hop extraction is sound because up
// distances strictly decrease along recorded first hops.
func (b *builder) climb(t *Table, turns []simnet.Turn, a, w int) (in simnet.Turn) {
	at, peer := t.ends.at, t.ends.peer
	for h := range turns {
		e := b.via[a*b.S+w]
		turns[h] = simnet.Turn(at[e].Port) - in
		far := at[peer[e]]
		in, a = simnet.Turn(far.Port), int(b.sw[far.Node])
	}
	return in
}

// leafPath locates the template of every route between two leaf switches
// in the template arena: n turns from lo, one per switch on the way.
type leafPath struct {
	lo, n int32
}

// tmplPad is the slack at the template arena's end, so that fromTemplates
// can read any template as one eight-turn word.
const tmplPad = 7

// writeRow makes sure src's row is written, writing it unless another
// goroutine has, and reports whether src has a row. The first row from a
// leaf builds the leaf and is written from its templates: each host's cell
// is its leaf pair's template with src's port subtracted from the first
// turn and the destination's added to the last (src's own cell, template
// 0, is then 0). Turns wrap like the int8s they are, so the two patches
// give the bytes the two-port difference would, also on one-turn routes
// between hosts of one leaf. Every later row of that leaf is a copy of a
// written one with the first turn of each cell moved by the difference of
// the two sources' ports.
//
//sanlint:hotpath
func (t *Table) writeRow(src topology.NodeID) bool {
	if uint(src) >= uint(len(t.ord)) || t.ord[src].at < 0 {
		return false
	}
	o := &t.ord[src]
	if o.row.Load() >= 0 {
		return true
	}
	t.mu.Lock()
	if o.row.Load() < 0 {
		H, si, lf := len(t.hosts), int(o.at), o.lf
		if lf.turns == nil {
			t.build(si) // the leaf's allocations, once per leaf
		} else {
			t.start[si] = uint32(o.rank) * lf.cells[H]
			sib := lf.first
			row := lf.turns[t.start[si]:][:lf.cells[H]]
			copy(row, lf.turns[t.start[sib]:])
			delta := t.port[sib] - t.port[si]
			for _, c := range lf.cells[:H] {
				row[c] += delta
			}
		}
		o.row.Store(int64(t.start[si]))
	}
	t.mu.Unlock()
	return true
}

// fromTemplates writes source si's row from the templates of its leaf,
// which t.b holds, as writeRow describes.
//
//sanlint:hotpath
func (t *Table) fromTemplates(row []simnet.Turn, si int) {
	lord, port, tmpl := t.lord, t.port[:len(t.lord)], t.b.tmpl
	paths := t.b.paths[:len(t.leaf)]
	from, k := port[si], 0
	for di, j := range lord {
		p := paths[j]
		cell := row[k : k+int(p.n)]
		if len(cell) <= 8 && k+8 <= len(row) {
			// One word moves the template; the garbage it leaves past
			// the cell is overwritten by the cells after it.
			put8(row[k:], get8(tmpl[p.lo:]))
		} else {
			copy(cell, tmpl[p.lo:p.lo+p.n])
		}
		cell[0] -= from
		cell[len(cell)-1] += port[di]
		k += len(cell)
	}
}

// get8 returns b's first eight turns as one little-endian word; the
// compiler merges the byte loads into one.
//
//sanlint:hotpath
func get8(b []simnet.Turn) uint64 {
	_ = b[7]
	return uint64(uint8(b[0])) | uint64(uint8(b[1]))<<8 | uint64(uint8(b[2]))<<16 | uint64(uint8(b[3]))<<24 |
		uint64(uint8(b[4]))<<32 | uint64(uint8(b[5]))<<40 | uint64(uint8(b[6]))<<48 | uint64(uint8(b[7]))<<56
}

// put8 stores v in b's first eight turns, get8's inverse; the compiler
// merges the byte stores into one.
//
//sanlint:hotpath
func put8(b []simnet.Turn, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = simnet.Turn(v), simnet.Turn(v>>8), simnet.Turn(v>>16), simnet.Turn(v>>24)
	b[4], b[5], b[6], b[7] = simnet.Turn(v>>32), simnet.Turn(v>>40), simnet.Turn(v>>48), simnet.Turn(v>>56)
}

// span returns the route from src to dst as its leaf and its bounds in the
// leaf's arena, or a nil leaf when the table holds none or src's row is
// not written yet. span(s, s) is the padding cell in s's own row: callers
// rule out src == dst. span must stay within the compiler's inlining
// budget: Route and WirePath take no call on the path of a lookup whose
// row is written.
//
//sanlint:hotpath
func (t *Table) span(src, dst topology.NodeID) (lf *leaf, lo, hi uint32) {
	if uint(src) < uint(len(t.ord)) && uint(dst) < uint(len(t.ord)) {
		if start, di := t.ord[src].row.Load(), t.ord[dst].at; start|int64(di) >= 0 { // a written row, a host
			lf = t.ord[src].lf
			return lf, uint32(start) + lf.cells[di], uint32(start) + lf.cells[di+1]
		}
	}
	return nil, 0, 0
}

// spanFirst is span after a miss, which may be src's first lookup: it
// writes src's row if it is a host's, then looks again.
//
//sanlint:hotpath
func (t *Table) spanFirst(src, dst topology.NodeID) (lf *leaf, lo, hi uint32) {
	if !t.writeRow(src) {
		return nil, 0, 0
	}
	return t.span(src, dst)
}

// Route returns the turn route from src to dst. The slice aliases the
// table's arena (capacity capped at its length); callers must not modify it.
//
//sanlint:hotpath
func (t *Table) Route(src, dst topology.NodeID) (simnet.Route, bool) {
	if src == dst {
		return nil, false
	}
	lf, lo, hi := t.span(src, dst)
	if lf == nil {
		if lf, lo, hi = t.spanFirst(src, dst); lf == nil {
			return nil, false
		}
	}
	return lf.turns[lo:hi:hi], true
}

// WirePath returns the wire path from src to dst: the route's turns read
// against Net, walked on demand.
//
//sanlint:hotpath
func (t *Table) WirePath(src, dst topology.NodeID) (Path, bool) {
	if src == dst {
		return Path{}, false
	}
	lf, lo, hi := t.span(src, dst)
	if lf == nil {
		if lf, lo, hi = t.spanFirst(src, dst); lf == nil {
			return Path{}, false
		}
	}
	return Path{lf: lf, src: src, lo: lo, hi: hi}, true
}

// Pairs calls f for every ordered host pair with a route, in ascending
// (src, dst) order, building first every leaf and writing every row no
// lookup has.
func (t *Table) Pairs(f func(src, dst topology.NodeID, p Path)) {
	t.writeAll()
	t.pairs(f)
}

// writeAll builds every leaf and writes every row no lookup has.
func (t *Table) writeAll() {
	for _, h := range t.hosts {
		t.writeRow(h)
	}
}

// pairs is Pairs on a table whose rows are all written. Unlike Pairs it
// is within the inlining budget, so the package's own walks over every
// pair call writeAll and then pairs, and their callbacks inline with it.
func (t *Table) pairs(f func(src, dst topology.NodeID, p Path)) {
	for si, s := range t.hosts {
		lf := t.ord[s].lf
		for di, d := range t.hosts {
			if si != di {
				f(s, d, Path{lf: lf, src: s, lo: t.start[si] + lf.cells[di], hi: t.start[si] + lf.cells[di+1]})
			}
		}
	}
}
