package routes

import (
	"fmt"
	"math"
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
	// v's position there (-1 for switches). Ordered pair (s, d) is
	// slot ord[s].at*len(hosts)+ord[d].at, and its route is
	// turns[off[slot]:off[slot+1]], empty on the diagonal. A row's start
	// off[si*H], and off[H*H], are set when the table is built; the rest
	// of the row's offsets and turns when the row is written.
	hosts []topology.NodeID
	ord   []hostOrd
	off   []uint32
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

	mu sync.Mutex // serialises row writers
}

// hostOrd is a node's host ordinal, -1 for a switch, twice: at is fixed,
// and row is -1 until the host's row is written. row publishes the row:
// writers store it, under Table.mu, after the row, so a lookup that loads
// an ordinal reads a finished row.
type hostOrd struct {
	at  int32
	row atomic.Int32
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

// layout sizes the row arena from the templates: source si's row holds
// every other host's route in ascending order, each its leaf pair's
// template long. Only each row's start is written here; writeRow fills the
// rest on first read.
func (t *Table) layout() {
	H, L := len(t.hosts), t.nleaf
	// rowLen[i]: a row from leaf i, the source's own one-turn cell included.
	rowLen := make([]uint32, L)
	for i := range rowLen {
		for _, j := range t.lord {
			rowLen[i] += uint32(t.paths[i*L+int(j)].n)
		}
	}
	t.off = make([]uint32, H*H+1)
	pos := uint32(0)
	for si, i := range t.lord {
		t.off[si*H] = pos
		pos += rowLen[i] - 1
	}
	t.off[H*H] = pos
	t.turns = make([]simnet.Turn, pos)
}

// ChooseRoot picks the UP*/DOWN* root: the switch maximising the minimum
// distance to any (non-ignored) host, tie-broken by maximum total distance
// then lowest id. This "picks a natural root of the network and allows
// packets to flow up to the least common ancestor of a source and
// destination".
//
// A host has one wire, so its distance from any switch is its own switch's
// distance plus one. One BFS per switch over the switch graph alone
// therefore suffices: each switch with hosts counts once, weighted by its
// non-ignored hosts.
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
	// weight[i]: the non-ignored hosts cabled to switch i; leaves: the
	// switches with any.
	weight := make([]int, S)
	var leaves []int32
	for _, h := range net.Hosts() {
		s, _, ok := net.HostSwitch(h)
		if !ok || sw[s] < 0 || slices.Contains(ignore, h) {
			continue // unreachable from every switch, or ignored
		}
		if weight[sw[s]] == 0 {
			leaves = append(leaves, sw[s])
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
// then t's wire — the meeting-node scan and both extractions happen once
// per leaf-switch pair, into a template, and host rows are written from
// the templates when they are first read.
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
	via := make([]int32, S*S) // via[i*S+j]: first wire on that path
	for i := range up {
		up[i], via[i] = inf, -1
	}
	for i := 0; i < S; i++ {
		up[i*S+i] = 0
	}
	// Direct up arcs. Parallel wires: keep the first.
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
				up[k], via[k] = 1, int32(wi)
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
	// fillUp writes the recorded up path from switch i to j, all len(dst)
	// wires of it. First-hop extraction is sound because up distances
	// strictly decrease along recorded first hops.
	fillUp := func(dst []int, i, j int) {
		for k := range dst {
			dst[k] = int(via[i*S+j])
			i = int(sw[t.across(dst[k], int(swNode[i]))])
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

	// Template pass, serial: each leaf pair picks its meeting node — first
	// strict minimum over ascending switches — and the best cost is the
	// exact length of its middle, so the template arena is sized before it
	// exists. A template is the route between two hosts on the pair's
	// leaves with the host ports left out: one turn per switch on the way,
	// the first still the raw port the route leaves the source leaf by and
	// the last minus the port it enters the destination leaf by. A leaf
	// paired with itself has the one turn 0.
	paths := make([]leafPath, L*L)
	meet := make([]int32, L*L)
	n, longest := int32(0), int32(0)
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
			longest = max(longest, bestC)
		}
	}
	// Extract each middle (up half, then the down half reversed where it
	// lies) and walk its turns.
	tmpl, mid := make([]simnet.Turn, n+tmplPad), make([]int, longest)
	for i, a := range leaves {
		for j, b := range leaves {
			p := &paths[i*L+j]
			if i == j {
				continue
			}
			mid := mid[:p.n-1]
			w := int(meet[i*L+j])
			k := up[a*S+w]
			fillUp(mid[:k], a, w)
			fillUp(mid[k:], b, w)
			slices.Reverse(mid[k:])
			cell := tmpl[p.lo : p.lo+p.n]
			out, in := t.walk(mid, cell[1:p.n-1], swNode[a])
			cell[0], cell[p.n-1] = simnet.Turn(out), simnet.Turn(-in)
		}
	}

	t.nleaf, t.paths, t.tmpl = L, paths, tmpl
	t.layout()
	return nil
}

// leafPath locates the template of every route between two leaf switches
// in the template arena: n turns from lo, one per switch on the way.
type leafPath struct {
	lo, n int32
}

// tmplPad is the slack at the template arena's end, so that writeRow can
// read any template as one eight-turn word.
const tmplPad = 7

// across returns the node on the far side of wire wi from node `from`.
func (t *Table) across(wi, from int) int {
	w := t.Net.WireByIndex(wi)
	if int(w.A.Node) == from {
		return int(w.B.Node)
	}
	return int(w.A.Node)
}

// walk follows wires from node cur and writes turns[i-1], for i ≥ 1, the
// turn taken from wires[i-1] onto wires[i]: at each intermediate switch the
// routing flit is the signed difference between the output and input ports
// (§2.2's addressing). It returns the port the first wire leaves cur by and
// the port the last wire arrives on.
func (t *Table) walk(wires []int, turns []simnet.Turn, cur topology.NodeID) (out, in int) {
	for i, wi := range wires {
		w := t.Net.WireByIndex(wi)
		from, to := w.A, w.B
		if from.Node != cur {
			from, to = to, from
		}
		if i == 0 {
			out = from.Port
		} else {
			turns[i-1] = simnet.Turn(from.Port - in)
		}
		cur, in = to.Node, to.Port
	}
	return out, in
}

// writeRow makes sure src's row is written, writing it unless another
// goroutine has, and reports whether src has a row. Each other host's
// route is its leaf pair's template with src's port subtracted from the
// first turn and the destination's added to the last. Turns wrap like the
// int8s they are, so the two patches give the bytes the two-port
// difference would, also on one-turn routes between hosts of one leaf.
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
		H, si := len(t.hosts), int(o.at)
		// off[di] is where cell di starts. The row's own start, and the
		// next row's, were set by layout and are read by other rows'
		// spans, so they are not written again.
		off := t.off[si*H : si*H+H]
		base := off[0]
		row := t.turns[base:t.off[si*H+H]]
		lord, port, tmpl := t.lord[:H], t.port[:H], t.tmpl
		paths := t.paths[int(lord[si])*t.nleaf:][:t.nleaf]
		from, k := port[si], 0
		for di, j := range lord {
			if di > 0 {
				off[di] = base + uint32(k)
			}
			if di == si {
				continue
			}
			p := paths[j]
			cell := row[k : k+int(p.n)]
			if len(cell) <= 8 && k+8 <= len(row) {
				// One word moves the template; the garbage it leaves
				// past the cell is overwritten by the cells after it.
				put8(row[k:], get8(tmpl[p.lo:]))
			} else {
				copy(cell, tmpl[p.lo:p.lo+p.n])
			}
			cell[0] -= from
			cell[len(cell)-1] += port[di]
			k += len(cell)
		}
		o.row.Store(int32(si))
	}
	t.mu.Unlock()
	return true
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

// span returns the arena bounds of the pair's route; ok is false when the
// table holds no route from src to dst, or src's row is not written yet.
// It must stay within the compiler's inlining budget: Route and WirePath
// take no call on the path of a lookup whose row is written.
//
//sanlint:hotpath
func (t *Table) span(src, dst topology.NodeID) (lo, hi uint32, ok bool) {
	if uint(src) < uint(len(t.ord)) && uint(dst) < uint(len(t.ord)) && src != dst {
		if si, di := t.ord[src].row.Load(), t.ord[dst].at; si|di >= 0 { // both ordinals
			slot := int(si)*len(t.hosts) + int(di)
			return t.off[slot], t.off[slot+1], true
		}
	}
	return 0, 0, false
}

// spanFirst is span after a miss, which may be src's first lookup: it
// writes src's row if it is a host's, then looks again.
//
//sanlint:hotpath
func (t *Table) spanFirst(src, dst topology.NodeID) (lo, hi uint32, ok bool) {
	if !t.writeRow(src) {
		return 0, 0, false
	}
	return t.span(src, dst)
}

// Route returns the turn route from src to dst. The slice aliases the
// table's arena (capacity capped at its length); callers must not modify it.
//
//sanlint:hotpath
func (t *Table) Route(src, dst topology.NodeID) (simnet.Route, bool) {
	if lo, hi, ok := t.span(src, dst); ok {
		return t.turns[lo:hi:hi], true
	}
	if lo, hi, ok := t.spanFirst(src, dst); ok {
		return t.turns[lo:hi:hi], true
	}
	return nil, false
}

// WirePath returns the wire path from src to dst: the route's turns read
// against Net, walked on demand.
//
//sanlint:hotpath
func (t *Table) WirePath(src, dst topology.NodeID) (Path, bool) {
	if lo, hi, ok := t.span(src, dst); ok {
		return Path{t: t, src: src, lo: lo, hi: hi}, true
	}
	if lo, hi, ok := t.spanFirst(src, dst); ok {
		return Path{t: t, src: src, lo: lo, hi: hi}, true
	}
	return Path{}, false
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
	H := len(t.hosts)
	for si, s := range t.hosts {
		for di, d := range t.hosts {
			if si != di {
				f(s, d, Path{t: t, src: s, lo: t.off[si*H+di], hi: t.off[si*H+di+1]})
			}
		}
	}
}
