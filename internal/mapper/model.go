// Package mapper implements the Berkeley network mapping algorithm of the
// SPAA'97 paper "System Area Network Mapping" (§3): breadth-first-like
// exploration of an anonymous-switch network with host and switch probes,
// deductive replicate detection anchored at uniquely-named hosts, object
// merging with index-offset normalisation, and pruning. Respecting the
// paper's parameters it produces a graph isomorphic to N−F.
//
// The package contains the production variant of §3.3 (vertex objects are
// merged directly, driven by a merge list) and, in labels.go, the simplified
// §3.1 variant used in the paper's proof (vertices are never merged, only
// relabelled); tests check the two agree.
package mapper

import (
	"fmt"
	"iter"
	"slices"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Vertex is a model-graph vertex: the record created for each non-null
// probe response (§3.1.1). Indices into the neighbour slots are *relative
// port numbers*: the turn that discovered the edge, normalised across
// merges so that replicates share a single indexing offset (Lemma 2).
type Vertex struct {
	id    int
	kind  topology.Kind
	name  string       // host name; "" for switches
	probe simnet.Route // the successful probe string that created the vertex

	// slots lists the relative port indices that edges claim, sorted by
	// index, each with its claiming edges in filing order; index order is
	// the order every walk (merge, export, checkpoint, sweep) visits them.
	// The list lives in the model's slot chunks (Model.file grows it).
	// The merge engine drives every slot towards at most one edge; two
	// distinct edges in a slot is the structural impossibility ("an actual
	// switch port has a single cable") that identifies more replicates.
	// Indices are not bounded by the radix (a restored or inconsistent
	// model can hold any int), so the list is searched, never indexed.
	slots []slot

	explored bool
	deleted  bool

	// winLo/winHi memoize the §3.3 feasible window for this vertex; the
	// memo is valid while winGen equals the model's editGen (0 = never
	// computed). The pipelined engine re-evaluates the window for every
	// speculative submission and staleness check, so this turns an
	// O(|slots|) map walk into a pair of loads on the hot path.
	winLo, winHi int
	winGen       uint64

	// forward/fshift implement a union-find with offsets: when non-nil,
	// index i in this vertex's frame is index i+fshift in forward's frame.
	forward *Vertex
	fshift  int
}

// slot is one relative port index of a vertex and the edges filed at it.
// A consistent model files one edge per slot, so the first is held inline
// and only a second, contradicting edge allocates a list.
type slot struct {
	idx  int
	edge *Edge   // the first edge filed here; never nil
	more []*Edge // the edges filed after it, oldest first
}

// all yields the slot's edges, oldest first.
func (s *slot) all() iter.Seq[*Edge] {
	return func(yield func(*Edge) bool) {
		if !yield(s.edge) {
			return
		}
		for _, e := range s.more {
			if !yield(e) {
				return
			}
		}
	}
}

// live reports whether the slot holds an edge that is not deleted.
func (s *slot) live() bool {
	if !s.edge.deleted {
		return true
	}
	for _, e := range s.more {
		if !e.deleted {
			return true
		}
	}
	return false
}

// search returns the position of idx in v.slots, or the position it would
// be inserted at, and whether it is present.
func (v *Vertex) search(idx int) (int, bool) {
	lo, hi := 0, len(v.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.slots[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(v.slots) && v.slots[lo].idx == idx
}

// at yields the edges filed at relative index idx, oldest first (none when
// the slot is empty).
func (v *Vertex) at(idx int) iter.Seq[*Edge] {
	return func(yield func(*Edge) bool) {
		if i, ok := v.search(idx); ok {
			v.slots[i].all()(yield)
		}
	}
}

// file appends e to the edges at v's relative index idx, inserting the slot
// in index order when idx is new. A full slot list moves to twice its
// capacity in the model's slot chunks, so growing one allocates nothing of
// its own.
func (m *Model) file(v *Vertex, idx int, e *Edge) {
	i, ok := v.search(idx)
	if ok {
		v.slots[i].more = append(v.slots[i].more, e)
		return
	}
	if len(v.slots) == cap(v.slots) {
		v.slots = append(m.slotChunks.take(max(2*cap(v.slots), 2)), v.slots...)
	}
	v.slots = slices.Insert(v.slots, i, slot{idx: idx, edge: e})
}

// ID returns the vertex's creation sequence number (stable, unique).
func (v *Vertex) ID() int { return v.id }

// Kind reports host or switch.
func (v *Vertex) Kind() topology.Kind { return v.kind }

// Name reports the host name ("" for switches).
func (v *Vertex) Name() string { return v.name }

// ProbeString returns the probe string that created the vertex.
func (v *Vertex) ProbeString() simnet.Route { return v.probe }

// Edge is a model-graph edge: endpoints plus the relative port indices at
// which it attaches (§3.1.1 "edge is an object containing a reference to
// the vertex at each end of it, and the associated indices").
type Edge struct {
	a, b    *Vertex
	ai, bi  int
	deleted bool
	// mark is the edge-enumeration stamp: equal to Model.markGen when this
	// edge was visited by the current walk (no per-walk map allocations).
	mark uint32
}

// otherSide returns the endpoint of e opposite to (v, idx).
func (e *Edge) otherSide(v *Vertex, idx int) (*Vertex, int) {
	if e.a == v && e.ai == idx {
		return e.b, e.bi
	}
	return e.a, e.ai
}

// sameAs reports whether two edges connect the same (vertex, index) pairs.
func (e *Edge) sameAs(o *Edge) bool {
	if e.a == o.a && e.ai == o.ai && e.b == o.b && e.bi == o.bi {
		return true
	}
	return e.a == o.b && e.ai == o.bi && e.b == o.a && e.bi == o.ai
}

// Model is the model graph M under construction, together with the merge
// machinery of §3.3.
type Model struct {
	verts      []*Vertex
	hostByName map[string]*Vertex
	nextID     int

	// maxPorts is the switch radix the model plans for: the feasible-port
	// windows pin relative indices into {0..maxPorts-1}. newModel defaults
	// it to the paper's 8; runs override it from Prober.MaxPorts.
	maxPorts int

	liveVerts int
	liveEdges int

	// editGen numbers the model's structural states: every mutation that
	// can move a feasible window (slot insertion, edge deletion, merge,
	// vertex deletion) bumps it, invalidating the per-vertex window memos.
	editGen uint64

	merges []mergeTask

	// Vertices, edges, slot lists and the probe strings vertices keep come
	// from chunks, so a map allocates per chunk rather than per discovery.
	vertChunks  chunks[Vertex]
	edgeChunks  chunks[Edge]
	slotChunks  chunks[slot]
	routeChunks chunks[simnet.Turn]

	// markGen is bumped per edge-enumeration walk (merge, degree, delete);
	// edges stamped with it form the walk's visited set. edgeScratch is the
	// reusable buffer those walks collect into.
	markGen     uint32
	edgeScratch []*Edge

	// Inconsistencies counts deductions that contradicted each other — a
	// vertex asked to merge with itself under a non-zero offset, which is
	// impossible in a quiescent network (Lemma 2) but can happen when probe
	// responses are lost or forged (cross-traffic / fault injection).
	Inconsistencies int

	// onMerge and onDelete are optional observability hooks (trace.go).
	onMerge  func(into, victim, shift int)
	onDelete func(id int)
	// onInconsistency, when non-nil, observes every contradictory deduction
	// as it is counted, with the two (root) vertices involved. The
	// self-healing run uses it to mark the contradicted region stale and
	// schedule a scoped re-explore.
	onInconsistency func(a, b *Vertex)
}

// noteInconsistency counts one contradictory deduction and notifies the
// observer hook.
func (m *Model) noteInconsistency(a, b *Vertex) {
	m.Inconsistencies++
	if m.onInconsistency != nil {
		m.onInconsistency(a, b)
	}
}

type mergeTask struct {
	a, b  *Vertex
	shift int // index j in b's frame equals index j+shift in a's frame
}

// chunks hands out values and slices carved from chunks it allocates,
// doubling from 16 to 1024 values a chunk.
type chunks[T any] struct {
	free []T
	size int
}

// take returns an empty slice with capacity n, carved from the current
// chunk, or from a fresh one when it has less than n values left.
func (c *chunks[T]) take(n int) []T {
	if n > len(c.free) {
		c.size = min(max(2*c.size, 16), 1024)
		c.free = make([]T, max(c.size, n))
	}
	s := c.free[:0:n]
	c.free = c.free[n:]
	return s
}

// new returns a pointer to a fresh zero value.
func (c *chunks[T]) new() *T { return &c.take(1)[:1][0] }

// keepRoute returns a copy of r that the model keeps: a vertex's probe
// string, carved from the route chunks. Appending to it reallocates.
func (m *Model) keepRoute(r simnet.Route) simnet.Route {
	if len(r) == 0 {
		return slices.Clone(r)
	}
	return append(m.routeChunks.take(len(r)), r...)
}

// newModel returns an empty model graph planning for the paper's 8-port
// switches; runs override maxPorts from their configuration.
func newModel() *Model {
	return &Model{hostByName: make(map[string]*Vertex), maxPorts: topology.SwitchPorts, editGen: 1}
}

// find resolves v to its surviving root and the offset translating v-frame
// indices into root-frame indices, with path compression.
func find(v *Vertex) (*Vertex, int) {
	if v.forward == nil {
		return v, 0
	}
	root, s := find(v.forward)
	v.forward = root
	v.fshift += s
	return root, v.fshift
}

// NumVertices reports live (unmerged, unpruned) vertices.
func (m *Model) NumVertices() int { return m.liveVerts }

// NumEdges reports live model edges.
func (m *Model) NumEdges() int { return m.liveEdges }

// newVertex creates a fresh live vertex.
func (m *Model) newVertex(kind topology.Kind, name string, probe simnet.Route) *Vertex {
	v := m.vertChunks.new()
	*v = Vertex{id: m.nextID, kind: kind, name: name, probe: probe}
	m.nextID++
	m.verts = append(m.verts, v)
	m.liveVerts++
	return v
}

// hostVertex returns the canonical vertex for host name, creating it if
// needed. Host vertices carry the unique host id as their label (§3.1.1),
// which is why a second discovery of the same name immediately identifies
// replicates. A created vertex keeps its own copy of probe (keepRoute), so
// callers may pass a scratch route.
func (m *Model) hostVertex(name string, probe simnet.Route) (v *Vertex, created bool) {
	if hv, ok := m.hostByName[name]; ok {
		root, _ := find(hv)
		return root, false
	}
	hv := m.newVertex(topology.HostNode, name, m.keepRoute(probe))
	m.hostByName[name] = hv
	return hv, true
}

// addEdge inserts an edge between (a, ai) and (b, bi), both given in the
// frames of the (root) vertices supplied, and enqueues any merge deductions
// the insertion exposes. It returns the edge (or the existing identical
// edge if the discovery is a duplicate).
func (m *Model) addEdge(a *Vertex, ai int, b *Vertex, bi int) *Edge {
	// Duplicate check first: rediscovering a known wire is a no-op.
	cand := Edge{a: a, ai: ai, b: b, bi: bi}
	for prev := range a.at(ai) {
		if prev.sameAs(&cand) {
			return prev
		}
	}
	e := m.edgeChunks.new()
	*e = cand
	m.liveEdges++
	m.insertSide(e, a, ai)
	if !(e.a == e.b && e.ai == e.bi) {
		m.insertSide(e, b, bi)
	}
	return e
}

// insertSide files edge e at v's index idx and enqueues replicate
// deductions against the edges already claiming that slot: "multiple links
// incident to a switch port identify additional replicates" (§1.2).
func (m *Model) insertSide(e *Edge, v *Vertex, idx int) {
	m.editGen++
	for prev := range v.at(idx) {
		if prev.deleted || prev == e {
			continue
		}
		w1, k1 := prev.otherSide(v, idx)
		w2, k2 := e.otherSide(v, idx)
		// (v, idx) has one actual cable; its far end is both (w1,k1) and
		// (w2,k2), so w1 and w2 are replicates with w2-frame shifted by
		// k1−k2 (the paper's mergeLabels re-indexing).
		m.merges = append(m.merges, mergeTask{a: w1, b: w2, shift: k1 - k2})
	}
	m.file(v, idx, e)
}

// processMerges drains the merge list (§3.3's mergelist loop), performing
// object merges that may themselves enqueue further merges, until the
// labelling process has stabilised.
func (m *Model) processMerges() {
	for len(m.merges) > 0 {
		t := m.merges[len(m.merges)-1]
		m.merges = m.merges[:len(m.merges)-1]
		ra, sa := find(t.a)
		rb, sb := find(t.b)
		// Translate the task into root frames: rb-frame + s ≡ ra-frame.
		s := t.shift + sa - sb
		if ra == rb {
			if s != 0 {
				m.noteInconsistency(ra, rb)
			}
			continue
		}
		// Survivor preference: explored beats unexplored (keeps the
		// exploration bookkeeping monotone), then the vertex created first.
		if (rb.explored && !ra.explored) || (rb.explored == ra.explored && rb.id < ra.id) {
			ra, rb, s = rb, ra, -s
		}
		if m.onMerge != nil {
			m.onMerge(ra.id, rb.id, s)
		}
		m.mergeInto(ra, rb, s)
	}
}

// mergeInto merges victim rb into survivor ra; index j in rb's frame
// becomes j+s in ra's.
func (m *Model) mergeInto(ra, rb *Vertex, s int) {
	m.editGen++
	if ra.kind != rb.kind {
		// A switch claimed to be a host (or vice versa): impossible under
		// quiescent probing; count and refuse.
		m.noteInconsistency(ra, rb)
		return
	}
	if rb.name != "" && ra.name != "" && ra.name != rb.name {
		// Two distinct uniquely-named hosts asked to merge: the anchors the
		// whole deduction scheme rests on (§2.3 "hosts are uniquely
		// identified") contradict each other. Count and refuse.
		m.noteInconsistency(ra, rb)
		return
	}
	if rb.name != "" && ra.name == "" {
		ra.name = rb.name
	}
	// Detach rb's edges, rewrite their rb sides, and re-file them under ra
	// in rb's index order.
	m.markGen++
	edges := m.edgeScratch[:0]
	for _, sl := range rb.slots {
		for e := range sl.all() {
			if !e.deleted && e.mark != m.markGen {
				e.mark = m.markGen
				edges = append(edges, e)
			}
		}
	}
	m.edgeScratch = edges
	rb.slots = nil
	rb.forward = ra
	rb.fshift = s
	rb.deleted = true
	m.liveVerts--
	if rb.explored {
		ra.explored = true
	}
	for _, e := range edges {
		if e.a == rb {
			e.a, e.ai = ra, e.ai+s
		}
		if e.b == rb {
			e.b, e.bi = ra, e.bi+s
		}
		// Re-file under ra; drop if it collapses onto an identical edge.
		dup := false
		for prev := range ra.at(slotOf(e, ra)) {
			if prev != e && !prev.deleted && prev.sameAs(e) {
				dup = true
				break
			}
		}
		if dup {
			e.deleted = true
			m.liveEdges--
			continue
		}
		m.insertSide(e, ra, slotOf(e, ra))
		if e.a == e.b && e.ai != e.bi {
			// A model self-loop (loopback cable): file the second side too.
			m.insertSide(e, ra, e.bi)
		}
	}
}

// slotOf returns the ra-side index of e (the a side if it is ra, else b).
func slotOf(e *Edge, v *Vertex) int {
	if e.a == v {
		return e.ai
	}
	return e.bi
}

// window returns the feasible range [lo, hi] of the absolute port number
// corresponding to relative index 0 of v, derived from the occupied slots:
// each known index i pins p0+i into {0..maxPorts-1} (§3.3's provably-safe
// probe elimination and Lemma 2's indexing offsets).
func (m *Model) window(v *Vertex) (lo, hi int) {
	if v.winGen == m.editGen {
		return v.winLo, v.winHi
	}
	lo, hi = 0, m.maxPorts-1
	for _, sl := range v.slots {
		if !sl.live() {
			continue
		}
		i := sl.idx
		if l := -i; l > lo {
			lo = l
		}
		if h := m.maxPorts - 1 - i; h < hi {
			hi = h
		}
	}
	v.winLo, v.winHi, v.winGen = lo, hi, m.editGen
	return lo, hi
}

// feasible reports whether relative index j can possibly be a legal port
// given the window: ∃ p0 ∈ [lo,hi] with 0 ≤ p0+j ≤ maxPorts-1.
func (m *Model) feasible(j, lo, hi int) bool {
	return j >= -hi && j <= m.maxPorts-1-lo
}

// occupied reports whether slot j holds a live edge.
func (v *Vertex) occupied(j int) bool {
	i, ok := v.search(j)
	return ok && v.slots[i].live()
}

// degree counts live edges incident to v (self-loops count twice, matching
// switch-port usage).
func (m *Model) degree(v *Vertex) int {
	d := 0
	m.markGen++
	for _, sl := range v.slots {
		for e := range sl.all() {
			if e.deleted || e.mark == m.markGen {
				continue
			}
			e.mark = m.markGen
			d++
			if e.a == e.b {
				d++
			}
		}
	}
	return d
}

// liveVertices returns the current live vertex set.
func (m *Model) liveVertices() []*Vertex {
	out := make([]*Vertex, 0, m.liveVerts)
	for _, v := range m.verts {
		if !v.deleted {
			out = append(out, v)
		}
	}
	return out
}

// deleteVertex removes v and all its incident edges (the prune step).
func (m *Model) deleteVertex(v *Vertex) {
	if v.deleted {
		return
	}
	m.editGen++
	m.markGen++
	for _, sl := range v.slots {
		for e := range sl.all() {
			if !e.deleted && e.mark != m.markGen {
				e.mark = m.markGen
				e.deleted = true
				m.liveEdges--
				// Remove from the far side's slot list lazily: liveAny and
				// iteration skip deleted edges.
			}
		}
	}
	v.deleted = true
	v.slots = nil
	m.liveVerts--
	if v.name != "" {
		delete(m.hostByName, v.name)
	}
	if m.onDelete != nil {
		m.onDelete(v.id)
	}
}

// check verifies internal invariants (test hook).
func (m *Model) check() error {
	for _, v := range m.verts {
		if v.deleted {
			continue
		}
		for k, sl := range v.slots {
			idx := sl.idx
			if k > 0 && v.slots[k-1].idx >= idx {
				return fmt.Errorf("vertex %d slot %d out of index order after slot %d", v.id, idx, v.slots[k-1].idx)
			}
			for e := range sl.all() {
				if e.deleted {
					continue
				}
				if (e.a == v && e.ai == idx) || (e.b == v && e.bi == idx) {
					continue
				}
				return fmt.Errorf("vertex %d slot %d holds foreign edge (%d@%d-%d@%d)",
					v.id, idx, e.a.id, e.ai, e.b.id, e.bi)
			}
		}
	}
	return nil
}
