package flow

import (
	"errors"
	"math"
)

// Graph is a directed flow network built incrementally with AddArc.
// The zero value is not usable; create instances with New.
type Graph struct {
	n    int
	to   []int32
	cap  []int64
	cost []int64
	// head[v] lists indices into the arc arrays for arcs leaving v.
	head [][]int32

	// TwoUnitCost's scratch (see there), valid for sink potSink while the
	// graph still has potArcs arc slots.
	potSink, potArcs int
	pot              []int64 // exact cost-to-sink of every vertex, unreachable if none
	tree             []int32 // first arc of a cheapest path to the sink
	dist             []int64 // search labels, live where mark[v] == gen
	mark             []uint32
	gen              uint32
	buckets          [][]int32 // Dial queue: one stack per reduced-cost residue
}

const unreachable = math.MaxInt64

// New returns an empty flow network on n vertices numbered 0..n-1.
func New(n int) *Graph {
	return &Graph{n: n, head: make([][]int32, n)}
}

// N reports the number of vertices.
func (g *Graph) N() int { return g.n }

// AddArc inserts a directed arc u->v with the given capacity and per-unit
// cost, together with its zero-capacity residual reverse arc. It returns the
// index of the forward arc; index^1 is always the reverse arc.
func (g *Graph) AddArc(u, v int, capacity, cost int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic("flow: arc endpoint out of range")
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	i := len(g.to)
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, capacity, 0)
	g.cost = append(g.cost, cost, -cost)
	g.head[u] = append(g.head[u], int32(i))
	g.head[v] = append(g.head[v], int32(i+1))
	return i
}

// AddEdge inserts an undirected unit-ish edge: one arc in each direction,
// each with its own capacity. For positive costs a minimum-cost flow never
// uses both directions of such a pair (the two traversals would cancel with
// a cost saving), which is exactly the "do not repeat an edge in either
// direction" constraint of the paper's Definition 2.
func (g *Graph) AddEdge(u, v int, capacity, cost int64) (fwd, rev int) {
	fwd = g.AddArc(u, v, capacity, cost)
	rev = g.AddArc(v, u, capacity, cost)
	return fwd, rev
}

// Flow reports the flow currently carried by the arc returned by AddArc.
func (g *Graph) Flow(arc int) int64 { return g.cap[arc^1] }

// ErrNegativeCycle is returned when the cost relaxation fails to settle,
// which for the graphs built here indicates a programming error.
var ErrNegativeCycle = errors.New("flow: negative cycle detected")

// MaxFlow pushes as much flow as possible (up to limit; limit<0 means
// unbounded) from s to t, ignoring costs, and returns the amount pushed.
// It uses BFS augmentation (Edmonds-Karp), sufficient at this scale.
func (g *Graph) MaxFlow(s, t int, limit int64) int64 {
	if limit < 0 {
		limit = math.MaxInt64
	}
	var total int64
	prev := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	for total < limit {
		for i := range prev {
			prev[i] = -1
		}
		prev[s] = -2
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 && prev[t] == -1 {
			u := queue[0]
			queue = queue[1:]
			for _, ai := range g.head[u] {
				v := g.to[ai]
				if g.cap[ai] > 0 && prev[v] == -1 {
					prev[v] = ai
					queue = append(queue, v)
				}
			}
		}
		if prev[t] == -1 {
			break
		}
		// Find bottleneck along the path, then apply it.
		push := limit - total
		for v := int32(t); v != int32(s); {
			ai := prev[v]
			if g.cap[ai] < push {
				push = g.cap[ai]
			}
			v = g.to[ai^1]
		}
		for v := int32(t); v != int32(s); {
			ai := prev[v]
			g.cap[ai] -= push
			g.cap[ai^1] += push
			v = g.to[ai^1]
		}
		total += push
	}
	return total
}

// MinCostFlow pushes up to limit units from s to t along successively
// cheapest augmenting paths and returns the units pushed and their total
// cost. Costs may not be negative on forward arcs.
func (g *Graph) MinCostFlow(s, t int, limit int64) (pushed, cost int64, err error) {
	dist := make([]int64, g.n)
	inQueue := make([]bool, g.n)
	prev := make([]int32, g.n)
	for pushed < limit {
		for i := range dist {
			dist[i] = math.MaxInt64
			prev[i] = -1
		}
		dist[s] = 0
		queue := []int32{int32(s)}
		inQueue[s] = true
		relaxations := 0
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			inQueue[u] = false
			du := dist[u]
			for _, ai := range g.head[u] {
				if g.cap[ai] <= 0 {
					continue
				}
				v := g.to[ai]
				if nd := du + g.cost[ai]; nd < dist[v] {
					dist[v] = nd
					prev[v] = ai
					if !inQueue[v] {
						inQueue[v] = true
						queue = append(queue, v)
					}
					relaxations++
					if relaxations > 4*g.n*len(g.to) {
						return pushed, cost, ErrNegativeCycle
					}
				}
			}
		}
		if dist[t] == math.MaxInt64 {
			break
		}
		push := limit - pushed
		for v := int32(t); v != int32(s); {
			ai := prev[v]
			if g.cap[ai] < push {
				push = g.cap[ai]
			}
			v = g.to[ai^1]
		}
		for v := int32(t); v != int32(s); {
			ai := prev[v]
			g.cap[ai] -= push
			g.cap[ai^1] += push
			v = g.to[ai^1]
		}
		pushed += push
		cost += push * dist[t]
	}
	return pushed, cost, nil
}

// TwoUnitCost reports what MinCostFlow(s, t, 2) would — the units pushed
// and their total cost — but leaves g unchanged, so one graph answers for
// every source; repeated calls with the same sink share its potentials and
// scratch and allocate nothing. g must carry no flow, s must differ from t,
// and costs should be small integers (the search keeps one bucket per
// distinct reduced cost). See the package comment for why this is exact.
func (g *Graph) TwoUnitCost(s, t int) (pushed, cost int64) {
	if g.pot == nil || g.potSink != t || g.potArcs != len(g.to) {
		g.potentials(t)
	}
	if g.pot[s] == unreachable {
		return 0, 0
	}
	// First unit: walk the shortest-path tree; every tree arc is tight, so
	// its residual twin has reduced cost 0 as well.
	g.pushTree(s, t, 1)
	d, ok := g.search(s, t)
	g.pushTree(s, t, -1)
	if !ok {
		return 1, g.pot[s]
	}
	return 2, 2*g.pot[s] + d
}

// potentials fills pot and tree with exact costs to t over arcs with spare
// capacity (queue-based Bellman-Ford run backwards from the sink; a plain
// BFS when costs are 0/1) and sizes the bucket ring to the largest reduced
// cost c(u,v) + pot[v] - pot[u] it leaves.
func (g *Graph) potentials(t int) {
	g.potSink, g.potArcs = t, len(g.to)
	g.pot, g.dist = make([]int64, g.n), make([]int64, g.n)
	g.tree, g.mark = make([]int32, g.n), make([]uint32, g.n)
	for i := range g.pot {
		g.pot[i] = unreachable
	}
	g.pot[t] = 0
	queued := make([]bool, g.n)
	queue := append(make([]int32, 0, g.n), int32(t))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		queued[u] = false
		for _, ai := range g.head[u] {
			in := ai ^ 1 // the arc v->u paired with u->v
			if g.cap[in] <= 0 {
				continue
			}
			v := g.to[ai]
			if nd := g.pot[u] + g.cost[in]; nd < g.pot[v] {
				g.pot[v], g.tree[v] = nd, in
				if !queued[v] {
					queued[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	maxReduced := int64(0)
	for u := range g.head {
		for _, ai := range g.head[u] {
			if v := g.to[ai]; g.cap[ai] > 0 && g.pot[u] != unreachable && g.pot[v] != unreachable {
				maxReduced = max(maxReduced, g.cost[ai]+g.pot[v]-g.pot[u])
			}
		}
	}
	g.buckets = make([][]int32, maxReduced+1)
}

// pushTree moves delta units along the tree path s..t.
func (g *Graph) pushTree(s, t int, delta int64) {
	for v := int32(s); v != int32(t); {
		ai := g.tree[v]
		g.cap[ai] -= delta
		g.cap[ai^1] += delta
		v = g.to[ai]
	}
}

// search is Dijkstra on reduced costs from s, stopping when t settles: it
// returns the reduced length of a cheapest residual path, which is that
// path's cost less pot[s].
func (g *Graph) search(s, t int) (d int64, ok bool) {
	g.gen++
	ring := int64(len(g.buckets))
	g.dist[s], g.mark[s] = 0, g.gen
	g.buckets[0] = append(g.buckets[0], int32(s))
	for pending := 1; pending > 0; d++ {
		b := &g.buckets[d%ring]
		for len(*b) > 0 {
			u := (*b)[len(*b)-1]
			*b = (*b)[:len(*b)-1]
			pending--
			if g.dist[u] != d {
				continue // superseded by a shorter label
			}
			if int(u) == t {
				for i := range g.buckets {
					g.buckets[i] = g.buckets[i][:0]
				}
				return d, true
			}
			for _, ai := range g.head[u] {
				v := g.to[ai]
				if g.cap[ai] <= 0 || g.pot[v] == unreachable {
					continue
				}
				nd := d + g.cost[ai] + g.pot[v] - g.pot[u]
				if g.mark[v] != g.gen || nd < g.dist[v] {
					g.dist[v], g.mark[v] = nd, g.gen
					g.buckets[nd%ring] = append(g.buckets[nd%ring], v)
					pending++
				}
			}
		}
	}
	return 0, false
}
