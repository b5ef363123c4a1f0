package routes

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

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
// per leaf-switch pair and every host pair under it copies the result.
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
	H := len(t.hosts)
	leaf := make([]int, H)     // each host's switch,
	leafPort := make([]int, H) // the port it occupies there
	hostWire := make([]int, H) // and the wire between them
	for i, h := range t.hosts {
		hostWire[i] = net.WireAt(h, topology.HostPort)
		far := net.WireByIndex(hostWire[i]).Other(topology.End{Node: h, Port: topology.HostPort})
		leaf[i], leafPort[i] = int(sw[far.Node]), far.Port
	}

	// Size pass, in ascending (s,t) order: the first pair under a leaf-
	// switch pair picks its meeting node — first strict minimum over
	// ascending switches — and the best cost is the exact length of the
	// shared middle, so every span is known before the arena exists.
	meet := make([]int32, S*S) // meeting switch + 1; 0 until scanned
	total := 0
	for si, a := range leaf {
		for di, b := range leaf {
			t.off[si*H+di] = uint32(total)
			if si == di {
				continue
			}
			if meet[a*S+b] == 0 {
				bestW, bestC := -1, inf
				for _, w := range anc[ancOff[a]:ancOff[a+1]] {
					if c := up[a*S+int(w)] + up[b*S+int(w)]; c < bestC {
						bestC, bestW = c, int(w)
					}
				}
				if bestW < 0 {
					return fmt.Errorf("routes: no compliant path %s -> %s",
						net.NameOf(t.hosts[si]), net.NameOf(t.hosts[di]))
				}
				meet[a*S+b] = int32(bestW) + 1
			}
			w := int(meet[a*S+b]) - 1
			total += 2 + int(up[a*S+w]+up[b*S+w])
		}
	}
	t.off[H*H] = uint32(total)

	// Fill pass: the first pair under a leaf-switch pair extracts the middle
	// in place (up half, then the down half reversed where it lies) and
	// walks its turns; later pairs copy both, and only the turns at the two
	// leaves shift, by the difference in host ports.
	t.wires, t.turns = make([]int, total), make([]simnet.Turn, total)
	first := make([]int32, S*S) // slot of that first pair + 1; 0 until written
	for si, a := range leaf {
		for di, b := range leaf {
			slot := si*H + di
			lo, hi := t.off[slot], t.off[slot+1]
			if lo == hi {
				continue
			}
			t.wires[lo], t.wires[hi-1] = hostWire[si], hostWire[di]
			mid := t.wires[lo+1 : hi-1]
			if f := int(first[a*S+b]) - 1; f >= 0 {
				copy(mid, t.wires[t.off[f]+1:])
				copy(t.turns[lo+1:hi], t.turns[t.off[f]+1:])
				t.turns[lo+1] += simnet.Turn(leafPort[f/H] - leafPort[si])
				t.turns[hi-1] += simnet.Turn(leafPort[di] - leafPort[f%H])
				continue
			}
			w := int(meet[a*S+b]) - 1
			k := up[a*S+w]
			fillUp(mid[:k], a, w)
			fillUp(mid[k:], b, w)
			slices.Reverse(mid[k:])
			t.walkTurns(slot)
			first[a*S+b] = int32(slot) + 1
		}
	}
	return nil
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
// route the interfaces consume: at each intermediate switch the routing
// flit is the signed difference between the output and input ports (§2.2's
// addressing).
func (t *Table) walkTurns(slot int) {
	lo, hi := t.off[slot], t.off[slot+1]
	cur, inPort := t.hosts[slot/len(t.hosts)], topology.HostPort
	for i := lo; i < hi; i++ {
		w := t.Net.WireByIndex(t.wires[i])
		from, to := w.A, w.B
		if from.Node != cur {
			from, to = to, from
		}
		if i > lo {
			t.turns[i] = simnet.Turn(from.Port - inPort)
		}
		cur, inPort = to.Node, to.Port
	}
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
