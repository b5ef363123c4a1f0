// Package place optimizes task-to-host placement against a measured demand
// matrix: given the routes a mapped fabric actually yields, where should
// communicating tasks live so their traffic crosses the fewest (and least
// shared) links?
//
// This closes the map→traffic loop from the placement side: sanmap produces
// the topology, routes derives deadlock-free paths, loadsim measures the
// demand matrix under load — and place consumes all three to relocate work.
// The optimizer is an exact branch-and-bound over permutations of the host
// set: a best-first search ordered by an admissible communication-cost lower
// bound, pruned by per-link bandwidth constraints, with an incumbent seeded
// from the better of identity and greedy placement so the result can never
// be worse than leaving tasks where they are. All tie-breaks are
// deterministic (bound, then insertion sequence), so equal inputs yield
// equal placements.
package place

import (
	"fmt"
	"math"
	"sort"

	"sanmap/internal/eventq"
	"sanmap/internal/faults"
	"sanmap/internal/routes"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

// Config bounds the search.
type Config struct {
	// LinkCapacity, when positive, is the per-directed-link demand budget in
	// bytes: placements routing more aggregate demand than this over any
	// single link are pruned as infeasible.
	LinkCapacity int64
	// MaxExpand caps node expansions; past it the search returns the best
	// incumbent with Optimal=false. Default 200000.
	MaxExpand int
}

// DefaultConfig returns the default search bounds.
func DefaultConfig() Config { return Config{MaxExpand: 200000} }

// Result is a placement: task i (row i of the demand matrix) runs on
// Hosts[i].
type Result struct {
	Hosts []topology.NodeID
	// Cost is the total communication cost: demand bytes × route hops,
	// summed over ordered task pairs.
	Cost int64
	// Expanded counts branch-and-bound node expansions.
	Expanded int
	// Optimal reports whether the search ran to completion (false when the
	// MaxExpand budget cut it short — Hosts is still the best found, and
	// never worse than identity).
	Optimal bool
}

// problem is the shared precomputed state: directed-link paths and hop
// distances between every host pair, and the demand volumes.
type problem struct {
	hosts []topology.NodeID
	n     int
	dist  [][]int32 // hops between host i and host j
	paths [][]int32 // directed link ids (2*wire+dir) per ordered pair i*n+j
	// vol[t][u] is the demand between tasks t and u in both directions —
	// cost is symmetric in the hop metric, so fold once here.
	vol [][]int64
	// order is the branching order: tasks by total volume descending.
	order []int
	// minHop is the smallest nonzero inter-host distance, the admissible
	// stand-in for pairs of still-unplaced tasks.
	minHop int64
	cap    int64
}

// build precomputes the problem from the route table and demand matrix.
func build(tab *routes.Table, m *workload.Matrix, cfg Config) (*problem, error) {
	n := len(m.Hosts)
	if n < 2 {
		return nil, fmt.Errorf("place: need at least two hosts, have %d", n)
	}
	p := &problem{hosts: m.Hosts, n: n, cap: cfg.LinkCapacity, minHop: math.MaxInt64}
	p.dist = make([][]int32, n)
	p.paths = make([][]int32, n*n)
	for i := range p.dist {
		p.dist[i] = make([]int32, n)
		for j := range p.dist[i] {
			if i == j {
				continue
			}
			wires, ok := tab.WirePath(m.Hosts[i], m.Hosts[j])
			if !ok {
				return nil, fmt.Errorf("place: no route %d -> %d", m.Hosts[i], m.Hosts[j])
			}
			path := make([]int32, 0, wires.Len())
			for w := wires.Walk(); w.Next(); {
				path = append(path, int32(w.Channel()))
			}
			p.paths[i*n+j] = path
			p.dist[i][j] = int32(len(path))
			if d := int64(len(path)); d > 0 && d < p.minHop {
				p.minHop = d
			}
		}
	}
	p.vol = make([][]int64, n)
	totals := make([]int64, n)
	for t := range p.vol {
		p.vol[t] = make([]int64, n)
		for u := range p.vol[t] {
			if t == u {
				continue
			}
			p.vol[t][u] = m.Bytes[t][u] + m.Bytes[u][t]
			totals[t] += p.vol[t][u]
		}
	}
	p.order = make([]int, n)
	for i := range p.order {
		p.order[i] = i
	}
	// Branch the heaviest communicators first: their placement moves the
	// bound most, so bad subtrees die early (ties: task index).
	sort.SliceStable(p.order, func(a, b int) bool {
		return totals[p.order[a]] > totals[p.order[b]]
	})
	return p, nil
}

// cost evaluates a complete placement: perm[t] is the host index task t
// runs on. Each unordered pair is counted once with its folded volume.
func (p *problem) cost(perm []int) int64 {
	var c int64
	for t := 0; t < p.n; t++ {
		for u := t + 1; u < p.n; u++ {
			c += p.vol[t][u] * int64(p.dist[perm[t]][perm[u]])
		}
	}
	return c
}

// feasible checks the per-link bandwidth budget over the first k placed
// tasks (in branching order). Directed demand routes over the directed
// path, so both directions of a pair load their own links.
func (p *problem) feasible(perm []int, k int, m *workload.Matrix, use map[int32]int64) bool {
	if p.cap <= 0 {
		return true
	}
	for id := range use {
		delete(use, id)
	}
	for a := 0; a < k; a++ {
		t := p.order[a]
		for b := 0; b < k; b++ {
			if a == b {
				continue
			}
			u := p.order[b]
			d := m.Bytes[t][u]
			if d == 0 {
				continue
			}
			for _, id := range p.paths[perm[t]*p.n+perm[u]] {
				use[id] += d
				if use[id] > p.cap {
					return false
				}
			}
		}
	}
	return true
}

// node is one partial assignment in the search tree.
type node struct {
	perm  []int // perm[t] = host index, -1 unassigned; indexed by task
	used  []bool
	depth int   // tasks placed, in p.order order
	g     int64 // exact cost among placed tasks
	f     int64 // g + admissible remainder bound
	seq   int64 // insertion order, the deterministic tie-break
}

func nodeLess(a, b *node) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	if a.depth != b.depth {
		return a.depth > b.depth // deeper first: reach incumbents sooner
	}
	return a.seq < b.seq
}

// bound completes g with an admissible estimate of the unplaced remainder:
// placed↔unplaced volume travels at least the placed host's distance to its
// nearest free host; unplaced↔unplaced volume at least minHop.
func (p *problem) bound(nd *node) int64 {
	b := nd.g
	// Nearest free host per placed task, computed once per node.
	for a := 0; a < nd.depth; a++ {
		t := p.order[a]
		ht := nd.perm[t]
		var nearest int64 = math.MaxInt64
		for h := 0; h < p.n; h++ {
			if nd.used[h] || int64(p.dist[ht][h]) >= nearest {
				continue
			}
			nearest = int64(p.dist[ht][h])
		}
		if nearest == math.MaxInt64 {
			continue
		}
		for bi := nd.depth; bi < p.n; bi++ {
			b += p.vol[t][p.order[bi]] * nearest
		}
	}
	for a := nd.depth; a < p.n; a++ {
		for bi := a + 1; bi < p.n; bi++ {
			b += p.vol[p.order[a]][p.order[bi]] * p.minHop
		}
	}
	return b
}

// Identity returns the do-nothing placement: task i stays on m.Hosts[i].
func Identity(m *workload.Matrix) []topology.NodeID {
	return append([]topology.NodeID(nil), m.Hosts...)
}

// Shuffled returns a seeded random permutation placement — the baseline a
// scheduler ignorant of topology would produce.
func Shuffled(m *workload.Matrix, seed uint64) []topology.NodeID {
	rng := faults.NewSource(seed)
	out := Identity(m)
	r := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	for i := len(out) - 1; i > 0; i-- {
		j := r(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Cost evaluates a placement against the demand matrix over the table's
// routes: demand bytes × route hops, summed over ordered task pairs.
func Cost(tab *routes.Table, m *workload.Matrix, hosts []topology.NodeID) (int64, error) {
	if len(hosts) != len(m.Hosts) {
		return 0, fmt.Errorf("place: placement has %d hosts, matrix %d", len(hosts), len(m.Hosts))
	}
	var c int64
	for t := range hosts {
		for u := range hosts {
			if t == u || m.Bytes[t][u] == 0 {
				continue
			}
			wires, ok := tab.WirePath(hosts[t], hosts[u])
			if !ok {
				return 0, fmt.Errorf("place: no route %d -> %d", hosts[t], hosts[u])
			}
			c += m.Bytes[t][u] * int64(wires.Len())
		}
	}
	return c, nil
}

// MaxLinkDemand returns the heaviest per-directed-link aggregated demand a
// placement routes — the quantity Config.LinkCapacity bounds. Useful for
// checking a placement against a budget after the fact.
func MaxLinkDemand(tab *routes.Table, m *workload.Matrix, hosts []topology.NodeID) (int64, error) {
	if len(hosts) != len(m.Hosts) {
		return 0, fmt.Errorf("place: placement has %d hosts, matrix %d", len(hosts), len(m.Hosts))
	}
	use := make(map[int64]int64)
	for t := range hosts {
		for u := range hosts {
			if t == u || m.Bytes[t][u] == 0 {
				continue
			}
			wires, ok := tab.WirePath(hosts[t], hosts[u])
			if !ok {
				return 0, fmt.Errorf("place: no route %d -> %d", hosts[t], hosts[u])
			}
			for w := wires.Walk(); w.Next(); {
				use[int64(w.Channel())] += m.Bytes[t][u]
			}
		}
	}
	var max int64
	for _, v := range use {
		if v > max {
			max = v
		}
	}
	return max, nil
}

// greedy places tasks in branching order, each on the free host minimizing
// the incremental cost against already-placed tasks (ties: lowest host
// index). It seeds the incumbent together with identity.
func (p *problem) greedy() []int {
	perm := make([]int, p.n)
	used := make([]bool, p.n)
	for i := range perm {
		perm[i] = -1
	}
	for a := 0; a < p.n; a++ {
		t := p.order[a]
		bestH, bestC := -1, int64(math.MaxInt64)
		for h := 0; h < p.n; h++ {
			if used[h] {
				continue
			}
			var c int64
			for b := 0; b < a; b++ {
				u := p.order[b]
				c += p.vol[t][u] * int64(p.dist[h][perm[u]])
			}
			if c < bestC {
				bestH, bestC = h, c
			}
		}
		perm[t] = bestH
		used[bestH] = true
	}
	return perm
}

// Optimize runs the branch-and-bound search and returns the best placement
// found. The incumbent starts at the better of identity and greedy, so the
// returned cost is never above the identity placement's.
func Optimize(tab *routes.Table, m *workload.Matrix, cfg Config) (*Result, error) {
	if cfg.MaxExpand <= 0 {
		cfg.MaxExpand = DefaultConfig().MaxExpand
	}
	p, err := build(tab, m, cfg)
	if err != nil {
		return nil, err
	}
	use := make(map[int32]int64)
	// Incumbent: identity, improved by greedy — each only when it fits the
	// bandwidth budget. With no feasible seed the search starts unbounded.
	var best []int
	bestCost := int64(math.MaxInt64)
	id := make([]int, p.n)
	for i := range id {
		id[i] = i
	}
	if p.feasible(id, p.n, m, use) {
		best, bestCost = id, p.cost(id)
	}
	if g := p.greedy(); p.feasible(g, p.n, m, use) {
		if c := p.cost(g); c < bestCost {
			best, bestCost = g, c
		}
	}
	q := eventq.New(nodeLess)
	root := &node{perm: make([]int, p.n), used: make([]bool, p.n)}
	for i := range root.perm {
		root.perm[i] = -1
	}
	root.f = p.bound(root)
	q.Push(root)
	var seq int64
	expanded := 0
	optimal := true
	for q.Len() > 0 {
		nd := q.Pop()
		if nd.f >= bestCost {
			// Best-first: every remaining node is at least as bad.
			break
		}
		if expanded >= cfg.MaxExpand {
			optimal = false
			break
		}
		expanded++
		t := p.order[nd.depth]
		for h := 0; h < p.n; h++ {
			if nd.used[h] {
				continue
			}
			g := nd.g
			for b := 0; b < nd.depth; b++ {
				u := p.order[b]
				g += p.vol[t][u] * int64(p.dist[h][nd.perm[u]])
			}
			if g >= bestCost {
				continue
			}
			child := &node{
				perm:  append([]int(nil), nd.perm...),
				used:  append([]bool(nil), nd.used...),
				depth: nd.depth + 1,
				g:     g,
			}
			child.perm[t] = h
			child.used[h] = true
			if !p.feasible(child.perm, child.depth, m, use) {
				continue
			}
			if child.depth == p.n {
				if g < bestCost {
					best, bestCost = child.perm, g
				}
				continue
			}
			child.f = p.bound(child)
			if child.f >= bestCost {
				continue
			}
			seq++
			child.seq = seq
			q.Push(child)
		}
	}
	if best == nil {
		return nil, fmt.Errorf("place: no placement satisfies link capacity %d within budget", cfg.LinkCapacity)
	}
	res := &Result{Cost: bestCost, Expanded: expanded, Optimal: optimal}
	res.Hosts = make([]topology.NodeID, p.n)
	for t, h := range best {
		res.Hosts[t] = p.hosts[h]
	}
	return res, nil
}
