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
// host pair, held in one flat turn arena (doc.go has the layout's
// rationale). The wires a route takes are not stored: the map and the turns
// fix them, and WirePath walks them on demand over a snapshot of Net's
// wiring taken when the table was built.
//
// A Table is logically immutable: Compute and ShortestPaths write the
// leaf-pair templates, and each source host's row of the arena is written
// from them the first time a lookup reads it. Lookups from any number of
// goroutines are safe.
type Table struct {
	Net    *topology.Network
	Root   topology.NodeID
	Labels []int64 // BFS labels after dominant relabelling
	// Dominant lists switches that were locally dominant before the fix.
	Dominant []topology.NodeID

	// hosts lists the hosts in ascending id order and ord[v].at is host
	// v's position there (-1 for switches). The route of ordered pair
	// (s, d) is the cell of d in s's row of the turn arena, empty on the
	// diagonal. A row holds one cell per host in ascending order, its own
	// one turn long, so every row from one leaf switch has the same cells:
	// cells[c:][d] is where d's cell starts in those rows, for c =
	// ord[s].cells, and cells[c:][H] is their length. start[i] is where
	// host i's row starts in turns. turns is allocated, and a row written,
	// when a lookup first reads the row.
	hosts []topology.NodeID
	ord   []hostOrd
	cells []uint32
	start []uint32
	size  int // the arena's length
	turns []simnet.Turn
	ends  ends // what WirePath walks

	// The templates rows are written from: each host's leaf ordinal and
	// the port it occupies there, and leaf pair (i, j)'s template
	// tmpl[paths[i*nleaf+j].lo:][:paths[i*nleaf+j].n].
	lord  []int32
	port  []simnet.Turn
	nleaf int
	paths []leafPath
	tmpl  []simnet.Turn

	mu      sync.Mutex // serialises row writers
	arena   sync.Once  // allocates turns
	written []int32    // per leaf, the ordinal of a host whose row is written, or -1
}

// hostOrd is a node's host ordinal, -1 for a switch, its row's cells in
// Table.cells, and its row's start: -1 until the row is written. row
// publishes the row: writers store it, under Table.mu, after the row, so
// a lookup that loads a start reads a finished row.
type hostOrd struct {
	at, cells int32
	row       atomic.Int64
}

// newTable returns an empty table over net's hosts.
func newTable(net *topology.Network, root topology.NodeID) *Table {
	n := net.NumNodes()
	t := &Table{Net: net, Root: root, hosts: net.Hosts(), ord: make([]hostOrd, n), ends: newEnds(net)}
	for i := range t.ord {
		t.ord[i].at = -1
		t.ord[i].row.Store(-1)
	}
	for i, h := range t.hosts {
		t.ord[h].at = int32(i)
	}
	return t
}

// leaves gives every host its leaf, the switch across its wire, and
// returns the leaves. Leaves get dense ordinals in the order their first
// host appears, so ascending leaf-ordinal pairs visit leaf-switch pairs in
// the order of their first host pair under ascending (s,t).
func (t *Table) leaves() ([]topology.NodeID, error) {
	net := t.Net
	var leaves []topology.NodeID
	lordOf := make([]int32, net.NumNodes()) // a switch's leaf ordinal + 1; 0 if it has no host
	t.lord, t.port = make([]int32, len(t.hosts)), make([]simnet.Turn, len(t.hosts))
	for i, h := range t.hosts {
		far, ok := net.Neighbor(h, topology.HostPort)
		if !ok || net.KindOf(far.Node) != topology.SwitchNode {
			return nil, fmt.Errorf("routes: host %s is not cabled to a switch", net.NameOf(h))
		}
		if lordOf[far.Node] == 0 {
			leaves = append(leaves, far.Node)
			lordOf[far.Node] = int32(len(leaves))
		}
		t.lord[i], t.port[i] = lordOf[far.Node]-1, simnet.Turn(far.Port)
	}
	return leaves, nil
}

// noPath reports leaf pair (i, j) unroutable under the first host pair
// that falls under it: the first a scan over host pairs would fail on.
func (t *Table) noPath(what string, i, j int) error {
	s, d := t.hosts[slices.Index(t.lord, int32(i))], t.hosts[slices.Index(t.lord, int32(j))]
	return fmt.Errorf("routes: no %s %s -> %s", what, t.Net.NameOf(s), t.Net.NameOf(d))
}

// layout places the rows from the templates: source si's row holds every
// host's cell in ascending order, each its leaf pair's template long, so
// the cells of a row depend on its leaf alone. Nothing is written to the
// rows here, and the arena is not allocated: writeRow does both when a row
// is first read.
func (t *Table) layout() error {
	H, L := len(t.hosts), t.nleaf
	t.cells = make([]uint32, L*(H+1))
	rowLen := make([]int, L)
	for i := range L {
		cells, paths := t.cells[i*(H+1):][:H+1], t.paths[i*L:][:L]
		pos := 0
		for di, j := range t.lord {
			cells[di] = uint32(pos)
			pos += int(paths[j].n)
		}
		cells[H], rowLen[i] = uint32(pos), pos
	}
	t.start = make([]uint32, H)
	for si, i := range t.lord {
		t.start[si] = uint32(t.size)
		t.ord[t.hosts[si]].cells = i * int32(H+1)
		t.size += rowLen[i]
	}
	if t.size > math.MaxUint32 || len(t.cells) > math.MaxInt32 {
		return fmt.Errorf("routes: %d hosts' routes take %d turns, more than a table holds", H, t.size)
	}
	t.written = make([]int32, L)
	for i := range t.written {
		t.written[i] = -1
	}
	return nil
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
// and returns the route table.
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
	t := newTable(net, root)
	t.label()
	if err := t.allPairs(); err != nil {
		return nil, err
	}
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

// allPairs computes shortest compliant paths with the Floyd-Warshall
// construction the paper cites: FW over up-only arcs gives U[i][j]; a
// compliant s→t path is up to some meeting node w then down, and a down
// path w→t is an up path t→w reversed, so cost(s,t) = min_w U[s][w]+U[t][w].
//
// A host's only arc is its own wire, and it points up (BFS labels a host
// after its switch, and relabelling only lowers switches). So hosts are
// never meeting or transit nodes, FW runs over switches alone, and the pair
// (s,t) is s's wire, the path of the leaf-switch pair (leaf(s), leaf(t)),
// then t's wire — the meeting-node scan happens once per leaf-switch pair,
// into a template, and host rows are written from the templates when they
// are first read. A template is the up path from leaf(s) to the meeting
// node, then the up path from leaf(t) to it reversed, and each leaf's up
// path to each meeting node it uses is extracted once.
func (t *Table) allPairs() error {
	net := t.Net
	const inf = int32(math.MaxInt32 / 4)
	// Switch ordinals ascend with node ids, so scanning ordinals keeps the
	// node-order tie-breaks of a scan over all nodes.
	swNode := net.Switches()
	S := len(swNode)
	sw := make([]int32, net.NumNodes())
	for i, s := range swNode {
		sw[s] = int32(i)
	}
	up := make([]int32, S*S)  // up[i*S+j]: shortest up-only distance
	via := make([]int32, S*S) // via[i*S+j]: the end the first wire on that path leaves i by
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
	// anc lists every switch's up-reachable switches, itself included, in
	// ascending order: the only candidate meeting nodes, a short list on
	// real fabrics.
	var anc []int32
	ancOff := make([]int32, S+1)
	for a := 0; a < S; a++ {
		for w, d := range up[a*S : a*S+S] {
			if d < inf {
				anc = append(anc, int32(w))
			}
		}
		ancOff[a+1] = int32(len(anc))
	}
	leafNodes, err := t.leaves()
	if err != nil {
		return err
	}
	leaves := make([]int, len(leafNodes)) // each leaf's switch ordinal
	for i, a := range leafNodes {
		leaves[i] = int(sw[a])
	}
	L := len(leaves)

	// Meeting pass, serial: each leaf pair picks its meeting node — first
	// strict minimum over ascending switches — and the best cost is the
	// exact length of its middle, so the template arena is sized before it
	// exists. Each (leaf, meeting node) pair met gets its up path.
	paths := make([]leafPath, L*L)
	meet := make([]int32, L*L)
	upAt := make([]int32, L*S) // upAt[i*S+w]: leaf i's up path to switch w in ups, or -1
	for k := range upAt {
		upAt[k] = -1
	}
	var ups []upPath
	var upTurns []simnet.Turn
	upTo := func(i, w int) {
		if upAt[i*S+w] >= 0 {
			return
		}
		upAt[i*S+w] = int32(len(ups))
		n := int(up[leaves[i]*S+w])
		lo := len(upTurns)
		upTurns = slices.Grow(upTurns, 2*n)[:lo+2*n]
		in := t.climb(upTurns[lo:lo+n], via, S, sw, leaves[i], w)
		for h, x := range upTurns[lo : lo+n] {
			upTurns[lo+2*n-1-h] = -x
		}
		ups = append(ups, upPath{lo: int32(lo), n: int32(n), in: in})
	}
	n := int32(0)
	for i, a := range leaves {
		for j, b := range leaves {
			p := &paths[i*L+j]
			p.lo, p.n = n, 1
			n++
			if i == j {
				continue
			}
			bestW, bestC := -1, inf
			for _, w := range anc[ancOff[a]:ancOff[a+1]] {
				if c := up[a*S+int(w)] + up[b*S+int(w)]; c < bestC {
					bestC, bestW = c, int(w)
				}
			}
			if bestW < 0 {
				return t.noPath("compliant path", i, j)
			}
			meet[i*L+j], p.n = int32(bestW), bestC+1
			n += bestC
			upTo(i, bestW)
			upTo(j, bestW)
		}
	}
	// Each template: the source leaf's up path, the turn at the meeting
	// node, and the destination leaf's up path reversed.
	tmpl := make([]simnet.Turn, n+tmplPad)
	for i := range leaves {
		for j := range leaves {
			if i == j {
				continue
			}
			p, w := paths[i*L+j], int(meet[i*L+j])
			src, dst := ups[upAt[i*S+w]], ups[upAt[j*S+w]]
			cell := tmpl[p.lo : p.lo+p.n]
			copy(cell, upTurns[src.lo:src.lo+src.n])
			cell[src.n] = dst.in - src.in
			copy(cell[src.n+1:], upTurns[dst.lo+dst.n:dst.lo+2*dst.n])
		}
	}

	t.nleaf, t.paths, t.tmpl = L, paths, tmpl
	return t.layout()
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
func (t *Table) climb(turns []simnet.Turn, via []int32, S int, sw []int32, a, w int) (in simnet.Turn) {
	at, peer := t.ends.at, t.ends.peer
	for h := range turns {
		e := via[a*S+w]
		turns[h] = simnet.Turn(at[e].Port) - in
		far := at[peer[e]]
		in, a = simnet.Turn(far.Port), int(sw[far.Node])
	}
	return in
}

// leafPath locates the template of every route between two leaf switches
// in the template arena: n turns from lo, one per switch on the way.
type leafPath struct {
	lo, n int32
}

// tmplPad is the slack at the template arena's end, so that writeRow can
// read any template as one eight-turn word.
const tmplPad = 7

// writeRow makes sure src's row is written, writing it unless another
// goroutine has, and reports whether src has a row. The first row of a
// leaf is written from the templates: each host's cell is its leaf pair's
// template with src's port subtracted from the first turn and the
// destination's added to the last (src's own cell, template 0, is then 0).
// Turns wrap like the int8s they are, so the two patches give the bytes
// the two-port difference would, also on one-turn routes between hosts of
// one leaf. Every later row of that leaf is a copy of a written one with
// the first turn of each cell moved by the difference of the two sources'
// ports.
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
		// The arena is the one allocation lookups make: once per table,
		// by the first row written, outside this allocation-free body.
		t.arena.Do(t.allocTurns)
		H, si := len(t.hosts), int(o.at)
		cells := t.cells[o.cells:][:H+1]
		row := t.turns[t.start[si]:][:cells[H]]
		lord, port := t.lord[:H], t.port[:H]
		if sib := t.written[lord[si]]; sib >= 0 {
			copy(row, t.turns[t.start[sib]:])
			delta := port[sib] - port[si]
			for _, c := range cells[:H] {
				row[c] += delta
			}
		} else {
			t.fromTemplates(row, si)
			t.written[lord[si]] = int32(si)
		}
		o.row.Store(int64(t.start[si]))
	}
	t.mu.Unlock()
	return true
}

// allocTurns allocates the turn arena.
func (t *Table) allocTurns() { t.turns = make([]simnet.Turn, t.size) }

// fromTemplates writes source si's row from the templates, as writeRow
// describes.
//
//sanlint:hotpath
func (t *Table) fromTemplates(row []simnet.Turn, si int) {
	lord, port, tmpl := t.lord, t.port[:len(t.lord)], t.tmpl
	paths := t.paths[int(lord[si])*t.nleaf:][:t.nleaf]
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

// span returns the arena bounds of the route from src to dst, or hi = 0
// when the table holds none or src's row is not written yet (a route has a
// turn at each switch on the way, so it is never empty). span(s, s) is the
// padding cell in s's own row: callers rule out src == dst. span must stay
// within the compiler's inlining budget: Route and WirePath take no call
// on the path of a lookup whose row is written.
//
//sanlint:hotpath
func (t *Table) span(src, dst topology.NodeID) (lo, hi uint32) {
	if uint(src) < uint(len(t.ord)) && uint(dst) < uint(len(t.ord)) {
		if start, di := t.ord[src].row.Load(), t.ord[dst].at; start|int64(di) >= 0 { // a written row, a host
			c := t.ord[src].cells + di
			return uint32(start) + t.cells[c], uint32(start) + t.cells[c+1]
		}
	}
	return 0, 0
}

// spanFirst is span after a miss, which may be src's first lookup: it
// writes src's row if it is a host's, then looks again.
//
//sanlint:hotpath
func (t *Table) spanFirst(src, dst topology.NodeID) (lo, hi uint32) {
	if !t.writeRow(src) {
		return 0, 0
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
	lo, hi := t.span(src, dst)
	if hi == 0 {
		if lo, hi = t.spanFirst(src, dst); hi == 0 {
			return nil, false
		}
	}
	return t.turns[lo:hi:hi], true
}

// WirePath returns the wire path from src to dst: the route's turns read
// against Net, walked on demand.
//
//sanlint:hotpath
func (t *Table) WirePath(src, dst topology.NodeID) (Path, bool) {
	if src == dst {
		return Path{}, false
	}
	lo, hi := t.span(src, dst)
	if hi == 0 {
		if lo, hi = t.spanFirst(src, dst); hi == 0 {
			return Path{}, false
		}
	}
	return Path{t: t, src: src, lo: lo, hi: hi}, true
}

// Pairs calls f for every ordered host pair with a route, in ascending
// (src, dst) order, writing first every row no lookup has.
func (t *Table) Pairs(f func(src, dst topology.NodeID, p Path)) {
	t.writeAll()
	t.pairs(f)
}

// writeAll writes every row no lookup has.
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
		row := t.cells[t.ord[s].cells:]
		for di, d := range t.hosts {
			if si != di {
				f(s, d, Path{t: t, src: s, lo: t.start[si] + row[di], hi: t.start[si] + row[di+1]})
			}
		}
	}
}
