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
	// paths holds the directed link ids (2*wire+dir) per ordered pair
	// i*n+j; only the bandwidth budget reads them, so it is nil when
	// LinkCapacity is 0.
	paths [][]int32
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
	if p.cap > 0 {
		p.paths = make([][]int32, n*n)
	}
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
			if p.paths != nil {
				path := make([]int32, 0, wires.Len())
				for w := wires.Walk(); w.Next(); {
					path = append(path, int32(w.Channel()))
				}
				p.paths[i*n+j] = path
			}
			p.dist[i][j] = int32(wires.Len())
			if d := int64(wires.Len()); d > 0 && d < p.minHop {
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

// search is one branch-and-bound run: the frontier, the arena its nodes'
// partial assignments live in, the incumbent, the tables the bound reads and
// the scratch an expansion scores its children on.
type search struct {
	p *problem
	m *workload.Matrix
	// ovol[a*n+b] is vol between the tasks at branching positions a and b.
	// rem[a*(n+1)+k] is the volume position a exchanges with positions k
	// and later, and pair[k] is minHop times the volume among positions k
	// and later themselves: the bound's unplaced terms, per depth.
	ovol, rem, pair []int64
	q               *eventq.Heap[item]
	// arena[s*n:] holds slot s's hosts by branching position and g[s] its
	// exact cost among them; spare lists the slots of expanded nodes.
	arena, spare []int32
	g            []int64
	seq          int64
	// best is the incumbent placement by task (nil until one is feasible).
	best     []int
	bestCost int64
	leaf     []int // the buffer a complete placement becomes best in
	// Expansion scratch: the parent's hosts, its used and free hosts, the
	// bound's surcharge per host for taking a placed task's nearest free
	// host, and per-channel bandwidth usage.
	placed    []int32
	freeHosts []int32
	used      []bool
	surcharge []int64
	use       []int64
}

// item is one frontier node: a partial assignment of depth positions in
// arena slot slot, and its bound f.
type item struct {
	f     int64
	seq   int64 // insertion order, the deterministic tie-break
	depth int32
	slot  int32
}

func itemLess(a, b item) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	if a.depth != b.depth {
		return a.depth > b.depth // deeper first: reach incumbents sooner
	}
	return a.seq < b.seq
}

// newSearch precomputes the bound's per-depth terms. Products factor
// exactly in int64 (wrapping arithmetic is a ring), so the bound equals the
// term-by-term sum bit for bit.
func newSearch(p *problem, m *workload.Matrix) *search {
	n := p.n
	s := &search{
		p: p, m: m, q: eventq.New(itemLess), bestCost: math.MaxInt64,
		ovol: make([]int64, n*n), rem: make([]int64, n*(n+1)), pair: make([]int64, n+1),
		leaf: make([]int, n), placed: make([]int32, n), freeHosts: make([]int32, 0, n), used: make([]bool, n), surcharge: make([]int64, n),
	}
	for a, t := range p.order {
		for b, u := range p.order {
			s.ovol[a*n+b] = p.vol[t][u]
		}
		for k := n - 1; k >= 0; k-- {
			s.rem[a*(n+1)+k] = s.rem[a*(n+1)+k+1] + s.ovol[a*n+k]
		}
	}
	var pairVol int64
	for k := n - 1; k >= 0; k-- {
		pairVol += s.rem[k*(n+1)+k+1]
		s.pair[k] = pairVol * p.minHop
	}
	if p.cap > 0 {
		channels := 0
		for _, path := range p.paths {
			for _, id := range path {
				channels = max(channels, int(id)+1)
			}
		}
		s.use = make([]int64, channels)
	}
	return s
}

// push adds a node with the first depth positions of placed, at cost g
// and bound f.
func (s *search) push(placed []int32, g, f int64) {
	n := s.p.n
	var slot int32
	if k := len(s.spare); k > 0 {
		slot, s.spare = s.spare[k-1], s.spare[:k-1]
	} else {
		slot = int32(len(s.g))
		s.arena = append(s.arena, make([]int32, n)...)
		s.g = append(s.g, 0)
	}
	copy(s.arena[int(slot)*n:], placed)
	s.g[slot] = g
	s.q.Push(item{f: f, seq: s.seq, depth: int32(len(placed)), slot: slot})
	s.seq++
}

// expand scores every child of nd — the next task in branching order on
// each free host — on the scratch arrays, records a better complete
// placement, and pushes the children whose bound beats the incumbent and
// whose placed traffic fits the bandwidth budget.
func (s *search) expand(nd item) {
	p, n, d := s.p, s.p.n, int(nd.depth)
	placed := s.placed[:d+1]
	copy(placed, s.arena[int(nd.slot)*n:int(nd.slot)*n+d])
	parentG := s.g[nd.slot]
	s.spare = append(s.spare, nd.slot)
	clear(s.used)
	for _, h := range placed[:d] {
		s.used[h] = true
	}
	free := s.freeHosts[:0]
	for h, u := range s.used {
		if !u {
			free = append(free, int32(h))
		}
	}
	k := d + 1
	vol := s.ovol[d*n : d*n+d]
	remNew := s.rem[d*(n+1)+k]
	var base int64
	if k < n {
		base = s.summarize(placed[:d], free, k)
	}
	for _, h := range free {
		g := parentG
		row := p.dist[h]
		for b, hb := range placed[:d] {
			g += vol[b] * int64(row[hb])
		}
		if g >= s.bestCost {
			continue
		}
		placed[d] = h
		if k == n {
			if s.feasible(placed) {
				for a, ha := range placed {
					s.leaf[p.order[a]] = int(ha)
				}
				s.best, s.bestCost = s.leaf, g
			}
			continue
		}
		// The new task's nearest free host.
		nearest := int64(math.MaxInt64)
		for _, x := range free {
			if x != h {
				nearest = min(nearest, int64(row[x]))
			}
		}
		f := g + base + s.surcharge[h] + nearest*remNew
		if f >= s.bestCost || !s.feasible(placed) {
			continue
		}
		s.push(placed, g, f)
	}
}

// summarize returns the bound's terms shared by every child at depth k:
// each placed task's volume to the unplaced ones at its nearest free
// distance, plus the unplaced pairs at minHop. A child that takes a placed
// task's one nearest free host leaves that task its runner-up instead;
// surcharge[h] holds the difference for host h.
func (s *search) summarize(placed, free []int32, k int) int64 {
	n := s.p.n
	clear(s.surcharge)
	base := s.pair[k]
	for a, ha := range placed {
		row := s.p.dist[ha]
		b1, b2, nearest := int64(math.MaxInt64), int64(math.MaxInt64), int32(0)
		for _, x := range free {
			if dist := int64(row[x]); dist < b1 {
				b1, b2, nearest = dist, b1, x
			} else if dist < b2 {
				b2 = dist
			}
		}
		r := s.rem[a*(n+1)+k]
		base += b1 * r
		s.surcharge[nearest] += (b2 - b1) * r
	}
	return base
}

// feasible checks the per-link bandwidth budget over the placed positions.
// Directed demand routes over the directed path, so both directions of a
// pair load their own links.
func (s *search) feasible(placed []int32) bool {
	p := s.p
	if p.cap <= 0 {
		return true
	}
	clear(s.use)
	for a, ha := range placed {
		t := p.order[a]
		for b, hb := range placed {
			if a == b {
				continue
			}
			d := s.m.Bytes[t][p.order[b]]
			if d == 0 {
				continue
			}
			for _, id := range p.paths[int(ha)*p.n+int(hb)] {
				s.use[id] += d
				if s.use[id] > p.cap {
					return false
				}
			}
		}
	}
	return true
}

// feasiblePerm checks a complete placement, by task, against the budget.
func (s *search) feasiblePerm(perm []int) bool {
	for a, t := range s.p.order {
		s.placed[a] = int32(perm[t])
	}
	return s.feasible(s.placed)
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
	s := newSearch(p, m)
	// Incumbent: identity, improved by greedy — each only when it fits the
	// bandwidth budget. With no feasible seed the search starts unbounded.
	id := make([]int, p.n)
	for i := range id {
		id[i] = i
	}
	if s.feasiblePerm(id) {
		s.best, s.bestCost = id, p.cost(id)
	}
	if g := p.greedy(); s.feasiblePerm(g) {
		if c := p.cost(g); c < s.bestCost {
			s.best, s.bestCost = g, c
		}
	}
	s.push(nil, 0, s.pair[0]) // the root: nothing placed, seq 0
	expanded := 0
	optimal := true
	for s.q.Len() > 0 {
		nd := s.q.Pop()
		if nd.f >= s.bestCost {
			// Best-first: every remaining node is at least as bad.
			break
		}
		if expanded >= cfg.MaxExpand {
			optimal = false
			break
		}
		expanded++
		s.expand(nd)
	}
	if s.best == nil {
		return nil, fmt.Errorf("place: no placement satisfies link capacity %d within budget", cfg.LinkCapacity)
	}
	res := &Result{Cost: s.bestCost, Expanded: expanded, Optimal: optimal}
	res.Hosts = make([]topology.NodeID, p.n)
	for t, h := range s.best {
		res.Hosts[t] = p.hosts[h]
	}
	return res, nil
}
