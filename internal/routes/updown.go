package routes

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

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
	// Rng randomises the choice among equal-cost parallel edges for load
	// balance; nil picks deterministically.
	Rng *rand.Rand
}

// DefaultConfig runs the paper's §5.5 pipeline from its natural root,
// choosing deterministically among parallel edges.
func DefaultConfig() Config {
	return Config{Root: topology.None}
}

// Table is a computed route set: one relative-turn source route per ordered
// host pair, held in two flat arenas (doc.go has the layout's rationale).
type Table struct {
	Net    *topology.Network
	Root   topology.NodeID
	Labels []int64 // BFS labels after dominant relabelling
	// Dominant lists switches that were locally dominant before the fix.
	Dominant []topology.NodeID

	// hosts lists the hosts in ascending id order and ord maps a node id
	// back to its position there (-1 for switches). Ordered pair (s, d) is
	// slot ord[s]*len(hosts)+ord[d]; its wire path is
	// wires[off[slot]:off[slot+1]], empty on the diagonal. turns runs
	// parallel to wires — turns[i] is the turn taken onto wires[i] — so the
	// pair's route is turns[off[slot]+1:off[slot+1]] and the first cell of
	// every span is unused.
	hosts []topology.NodeID
	ord   []int32
	off   []uint32
	wires []int
	turns []simnet.Turn
}

// newTable returns an empty table over net's hosts with room for off.
func newTable(net *topology.Network, root topology.NodeID) *Table {
	t := &Table{Net: net, Root: root, hosts: net.Hosts(), ord: make([]int32, net.NumNodes())}
	for i := range t.ord {
		t.ord[i] = -1
	}
	for i, h := range t.hosts {
		t.ord[h] = int32(i)
	}
	t.off = make([]uint32, len(t.hosts)*len(t.hosts)+1)
	return t
}

// ChooseRoot picks the UP*/DOWN* root: the switch maximising the minimum
// distance to any (non-ignored) host, tie-broken by maximum total distance
// then lowest id. This "picks a natural root of the network and allows
// packets to flow up to the least common ancestor of a source and
// destination".
func ChooseRoot(net *topology.Network, ignore ...topology.NodeID) topology.NodeID {
	hosts := net.Hosts()
	for _, h := range ignore {
		if i := slices.Index(hosts, h); i >= 0 {
			hosts = slices.Delete(hosts, i, i+1)
		}
	}
	best := topology.None
	bestMin, bestSum := -1, -1
	// One BFS per switch over the CSR index, reusing a single distance
	// buffer — the dominant cost of route computation on large fabrics.
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
	if err := t.allPairs(cfg); err != nil {
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

// upEnd reports whether traversing wire w from end e is an "up" move
// (toward a smaller label; a valid route is up moves then down moves).
func (t *Table) upEnd(w topology.Wire, from topology.End) bool {
	to := w.Other(from)
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
// per leaf-switch pair, into a template every host pair under it copies.
func (t *Table) allPairs(cfg Config) error {
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
	// Direct up arcs. Parallel wires: keep one; the Rng may swap in a later
	// one for load balance.
	net.WiresIndexed(func(wi int, w topology.Wire) {
		if w.A.Node == w.B.Node || net.KindOf(w.A.Node) != topology.SwitchNode || net.KindOf(w.B.Node) != topology.SwitchNode {
			return // loopback cables are never on shortest paths; host wires are added per pair
		}
		for _, from := range [2]topology.End{w.A, w.B} {
			if !t.upEnd(w, from) {
				continue
			}
			k := int(sw[from.Node])*S + int(sw[w.Other(from).Node])
			if up[k] > 1 {
				up[k], via[k] = 1, int32(wi)
			} else if cfg.Rng != nil && cfg.Rng.Intn(2) == 0 {
				via[k] = int32(wi) // random choice among parallel wires
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
	// Leaves get dense ordinals in the order their first host appears, so
	// ascending leaf-ordinal pairs visit leaf-switch pairs in the order of
	// their first host pair under ascending (s,t).
	H := len(t.hosts)
	var leaves []int           // each leaf's switch ordinal,
	lord := make([]int32, H)   // each host's leaf ordinal,
	leafPort := make([]int, H) // the port it occupies there
	hostWire := make([]int, H) // and the wire between them
	lordOf := make([]int32, S) // a switch's leaf ordinal + 1; 0 if it has no host
	for i, h := range t.hosts {
		hostWire[i] = net.WireAt(h, topology.HostPort)
		far := net.WireByIndex(hostWire[i]).Other(topology.End{Node: h, Port: topology.HostPort})
		a := sw[far.Node]
		if lordOf[a] == 0 {
			leaves = append(leaves, int(a))
			lordOf[a] = int32(len(leaves))
		}
		lord[i], leafPort[i] = lordOf[a]-1, far.Port
	}
	L := len(leaves)

	// Template pass, serial: each leaf pair picks its meeting node — first
	// strict minimum over ascending switches — and the best cost is the
	// exact length of its middle, so the template arena is sized before it
	// exists. A leaf paired with itself has an empty middle.
	paths := make([]leafPath, L*L)
	meet := make([]int32, L*L)
	n := int32(0)
	for i, a := range leaves {
		for j, b := range leaves {
			p := &paths[i*L+j]
			p.lo = n
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
				// The first host pair under it is the first to fail.
				s, d := t.hosts[slices.Index(lord, int32(i))], t.hosts[slices.Index(lord, int32(j))]
				return fmt.Errorf("routes: no compliant path %s -> %s", net.NameOf(s), net.NameOf(d))
			}
			meet[i*L+j], p.n = int32(bestW), bestC
			n += bestC
		}
	}
	// Extract each middle (up half, then the down half reversed where it
	// lies) and walk its turns.
	mids, midTurns := make([]int, n), make([]simnet.Turn, n)
	for i, a := range leaves {
		for j, b := range leaves {
			p := &paths[i*L+j]
			if p.n == 0 {
				continue
			}
			mid := mids[p.lo : p.lo+p.n]
			w := int(meet[i*L+j])
			k := up[a*S+w]
			fillUp(mid[:k], a, w)
			fillUp(mid[k:], b, w)
			slices.Reverse(mid[k:])
			out, in := t.walk(mid, midTurns[p.lo:p.lo+p.n], swNode[a])
			p.out, p.in = int32(out), int32(in)
		}
	}

	// Row starts: a source row's length depends only on its leaf — each
	// pair's span is the template's middle between two host wires — so one
	// pass per leaf pair and a prefix sum over hosts size the whole arena.
	// Each row's start is parked in its first slot's offset.
	perLeaf := make([]int, L) // hosts on each leaf
	for _, i := range lord {
		perLeaf[i]++
	}
	rowLen := make([]int, L)
	for i := range leaves {
		rowLen[i] = -2 // a host's own pair has no span
		for j, c := range perLeaf {
			rowLen[i] += c * (2 + int(paths[i*L+j].n))
		}
	}
	total := 0
	for si, i := range lord {
		t.off[si*H] = uint32(total)
		total += rowLen[i]
	}
	t.off[H*H] = uint32(total)

	// Fill pass: contiguous blocks of source rows, one per GOMAXPROCS, each
	// writing only its own rows' offsets and spans. A pair copies its
	// template's middle and interior turns; the two turns at the leaves are
	// written from the host ports directly.
	t.wires, t.turns = make([]int, total), make([]simnet.Turn, total)
	fillRows := func(from, to int) {
		for si := from; si < to; si++ {
			row := paths[int(lord[si])*L : int(lord[si]+1)*L]
			off := t.off[si*H : si*H+H]
			pos := off[0]
			for di, dl := range lord {
				off[di] = pos
				if di == si {
					continue
				}
				p := &row[dl]
				wires, turns := t.wires[pos:pos+2+uint32(p.n)], t.turns[pos:pos+2+uint32(p.n)]
				wires[0], wires[len(wires)-1] = hostWire[si], hostWire[di]
				if p.n == 0 {
					turns[1] = simnet.Turn(leafPort[di] - leafPort[si])
				} else {
					// The middles are a few wires long: a loop beats copy's call.
					for x, w := range mids[p.lo : p.lo+p.n] {
						wires[1+x] = w
					}
					for x, turn := range midTurns[p.lo+1 : p.lo+p.n] {
						turns[2+x] = turn
					}
					turns[1] = simnet.Turn(int(p.out) - leafPort[si])
					turns[len(turns)-1] = simnet.Turn(leafPort[di] - int(p.in))
				}
				pos += uint32(len(wires))
			}
		}
	}
	blocks := min(runtime.GOMAXPROCS(0), H)
	var wg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fillRows(b*H/blocks, (b+1)*H/blocks)
		}()
	}
	wg.Wait()
	return nil
}

// leafPath is the template of every route between two leaf switches: the
// middle between the two host wires, held at [lo, lo+n) in the template
// arenas with its interior turns, and the ports the middle leaves the
// source leaf by and enters the destination leaf by. n is 0 when the two
// leaves are one switch.
type leafPath struct {
	lo, n   int32
	out, in int32
}

// across returns the node on the far side of wire wi from node `from`.
func (t *Table) across(wi, from int) int {
	w := t.Net.WireByIndex(wi)
	if int(w.A.Node) == from {
		return int(w.B.Node)
	}
	return int(w.A.Node)
}

// walkTurns converts one slot's wire path into the relative-turn source
// route the interfaces consume.
func (t *Table) walkTurns(slot int) {
	lo, hi := t.off[slot], t.off[slot+1]
	t.walk(t.wires[lo:hi], t.turns[lo:hi], t.hosts[slot/len(t.hosts)])
}

// walk follows wires from node cur and writes turns[i], for i ≥ 1, the turn
// taken from wires[i-1] onto wires[i]: at each intermediate switch the
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
			turns[i] = simnet.Turn(from.Port - in)
		}
		cur, in = to.Node, to.Port
	}
	return out, in
}

// span returns the arena bounds of the pair's wire path; lo == hi when the
// table holds no route from src to dst.
//
//sanlint:hotpath
func (t *Table) span(src, dst topology.NodeID) (lo, hi uint32) {
	if uint(src) >= uint(len(t.ord)) || uint(dst) >= uint(len(t.ord)) || t.ord[src] < 0 || t.ord[dst] < 0 {
		return 0, 0
	}
	slot := int(t.ord[src])*len(t.hosts) + int(t.ord[dst])
	return t.off[slot], t.off[slot+1]
}

// Route returns the turn route from src to dst. The slice aliases the
// table's arena (capacity capped at its length); callers must not modify it.
//
//sanlint:hotpath
func (t *Table) Route(src, dst topology.NodeID) (simnet.Route, bool) {
	lo, hi := t.span(src, dst)
	if lo == hi {
		return nil, false
	}
	return t.turns[lo+1 : hi : hi], true
}

// WirePath returns the wire sequence from src to dst, aliasing the arena
// like Route.
//
//sanlint:hotpath
func (t *Table) WirePath(src, dst topology.NodeID) ([]int, bool) {
	lo, hi := t.span(src, dst)
	return t.wires[lo:hi:hi], lo != hi
}

// Pairs calls f for every ordered host pair with a route, in ascending
// (src, dst) order.
func (t *Table) Pairs(f func(src, dst topology.NodeID, wires []int, turns simnet.Route)) {
	for slot, lo := range t.off[:len(t.off)-1] {
		if hi := t.off[slot+1]; lo < hi {
			f(t.hosts[slot/len(t.hosts)], t.hosts[slot%len(t.hosts)], t.wires[lo:hi:hi], t.turns[lo+1:hi:hi])
		}
	}
}
