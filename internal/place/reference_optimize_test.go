package place

import (
	"fmt"
	"math"

	"sanmap/internal/eventq"
	"sanmap/internal/routes"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

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

// referenceOptimize is Optimize as it was first written, kept verbatim as
// the oracle the reworked search is held to (TestOptimizeMatchesReference)
// and the baseline its benchmark gate is relative to: every child gets its
// own perm, used set and *node before it is pruned, its bound rescans the
// placed tasks against every host, and bandwidth usage accumulates in a map.
func referenceOptimize(tab *routes.Table, m *workload.Matrix, cfg Config) (*Result, error) {
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
