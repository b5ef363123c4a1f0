// Package hotpath holds fixtures for the hotpath analyzer: functions
// annotated //sanlint:hotpath must stay allocation-free.
package hotpath

import (
	"fmt"

	xhelper "sanmap/internal/analysis/testdata/src/hotpath/helper"
)

// scratch mimics the eval kernel's reusable buffer owner.
type scratch struct {
	hops   []int
	lookup map[int]int
	// filter mimics the fault layer's injection hook: a cold func-valued
	// field the hot path consults behind a nil check.
	filter func(int) bool
}

// sink defeats "unused" only; it is not part of the checked surface.
var sink any

//sanlint:hotpath
func (s *scratch) reset() {
	s.hops = s.hops[:0]
}

// Good: appends rooted at the receiver or a parameter reuse owned buffers,
// struct literals stay on the stack, and panic guards may format freely.
//
//sanlint:hotpath
func (s *scratch) step(buf []int, v int) []int {
	if v < 0 {
		panic(fmt.Sprintf("hotpath: negative step %d", v))
	}
	s.hops = append(s.hops, v)
	buf = append(buf, v)
	type pair struct{ a, b int }
	p := pair{a: v, b: v}
	s.reset()
	return append(buf, p.a)
}

// Good: the nil-injector fast path. A call through a func-valued field is
// not a call to an unannotated same-package function, so a hot path may
// gate optional fault hooks behind a nil check with zero diagnostics — the
// pattern simnet's injection points and wormsim's link filter rely on.
//
//sanlint:hotpath
func (s *scratch) gated(v int) bool {
	if s.filter != nil && s.filter(v) {
		return false
	}
	s.hops = append(s.hops, v)
	return true
}

// Bad: every allocation class the analyzer guards against.
//
//sanlint:hotpath
func (s *scratch) badAllocs(v int) {
	m := map[int]int{v: v} // want "composite literal allocates a map"
	_ = m
	xs := []int{v} // want "composite literal allocates a slice"
	_ = xs
	s.lookup = make(map[int]int) // want "make allocates"
	p := new(int)                // want "new allocates"
	_ = p
}

//sanlint:hotpath
func (s *scratch) badAppend(v int) {
	var local []int
	local = append(local, v) // want "append to a slice not owned by the receiver or a parameter"
	_ = local
}

//sanlint:hotpath
func (s *scratch) badClosure() func() int {
	n := 0
	return func() int { // want "function literal may escape"
		n++
		return n
	}
}

//sanlint:hotpath
func (s *scratch) badBoxing(v int) {
	sink = any(v) // want "conversion to interface type any boxes its operand"
}

//sanlint:hotpath
func (s *scratch) badDefer() {
	defer s.reset() // want "defer allocates and delays the hot path"
	go s.reset()    // want "goroutine launch on the hot path"
}

//sanlint:hotpath
func badConcat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

// helper is deliberately unannotated.
func helper(v int) int { return v + 1 }

//sanlint:hotpath
func badCallee(v int) int {
	return helper(v) // want "call to unannotated same-package function helper"
}

// The metrics fast path (internal/obs's contract, in miniature): handles
// are registered once at setup and mutated through annotated, nil-safe
// methods, so an instrumented hot function stays diagnostic-free.

// counter mimics an obs.Counter handle: pre-registered, nil-safe.
type counter struct{ v int64 }

//sanlint:hotpath
func (c *counter) inc() {
	if c == nil {
		return
	}
	c.v++
}

//sanlint:hotpath
func (c *counter) add(d int64) {
	if c == nil {
		return
	}
	c.v += d
}

// histogram mimics an obs.Histogram: fixed buckets owned by the handle.
type histogram struct {
	bounds []int64
	counts []int64
}

//sanlint:hotpath
func (h *histogram) observe(v int64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v < b {
			h.counts[i]++
			return
		}
	}
}

// metrics holds the pre-registered handles a subsystem stores at setup.
type metrics struct {
	submitted *counter
	missWait  *histogram
}

// Good: the instrumented fast path — counter add and histogram observe
// through pre-registered handles are annotated calls on owned state.
//
//sanlint:hotpath
func (m *metrics) fastPath(latency int64) {
	m.submitted.inc()
	m.submitted.add(1)
	m.missWait.observe(latency)
}

// The CSR index fast path (internal/topology's contract, in miniature):
// flat adjacency arrays with per-node offsets plus scratch arenas sized at
// build time, so accessors reslice owned arrays and traversals append only
// to receiver-rooted buffers.

// csrIndex mimics topology.Index: off/nbr are the packed adjacency, queue
// is the reusable BFS arena.
type csrIndex struct {
	off   []int32
	nbr   []int32
	queue []int32
}

// Good: accessors that reslice the index's own arrays allocate nothing.
//
//sanlint:hotpath
func (ix *csrIndex) neighbors(id int) []int32 {
	return ix.nbr[ix.off[id]:ix.off[id+1]]
}

//sanlint:hotpath
func (ix *csrIndex) degree(id int) int {
	return int(ix.off[id+1] - ix.off[id])
}

// Good: arena-style BFS — the queue appends are rooted at the receiver
// (capacity sized at build time) and dist is caller-owned.
//
//sanlint:hotpath
func (ix *csrIndex) bfsInto(src int32, dist []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	ix.queue = append(ix.queue[:0], src)
	for head := 0; head < len(ix.queue); head++ {
		u := ix.queue[head]
		for _, v := range ix.neighbors(int(u)) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				ix.queue = append(ix.queue, v)
			}
		}
	}
	return dist
}

// Bad: a traversal that sizes fresh scratch per call instead of reusing
// the index's arenas — the allocation pattern the CSR rework removed.
//
//sanlint:hotpath
func (ix *csrIndex) badFreshScratch(src int32) []int32 {
	dist := make([]int32, len(ix.off)-1) // want "make allocates"
	var queue []int32
	queue = append(queue, src) // want "append to a slice not owned by the receiver or a parameter"
	_ = queue
	return dist
}

// register is the setup-time path: deliberately unannotated, it may
// allocate freely — which is exactly why the hot path must not call it.
func register(name string) *counter { return &counter{} }

// Bad: lazy registration — looking a handle up (or creating it) inside
// the hot function instead of storing it at setup.
//
//sanlint:hotpath
func (m *metrics) badLazyRegister(kind string) {
	c := register("probe." + kind) // want "string concatenation allocates" "call to unannotated same-package function register"
	c.inc()
}

// h7 interprocedural: a hot function may call into another package only
// when the callee's exported fact proves it allocation-free.
//
//sanlint:hotpath
func (s *scratch) crossPackage(buf []int, v int) []int {
	buf = xhelper.Fast(buf, v) // good: AllocFreeFact imported from helper
	extra := xhelper.Alloc(v)  // want "call to .*helper.Alloc which is not provably allocation-free"
	return append(buf, extra...)
}

// Bad: simnet's traverse shape. The common branch stays on owned state; a
// rare one (a loopback plug) reaches the graph's cached index, which
// rebuilds when stale. A runtime gate that never drives that branch, or
// drives it only with a warm cache, measures 0 allocs.
//
//sanlint:hotpath
func (s *scratch) traverse(g *xhelper.Graph, v int) int {
	if v >= 0 {
		s.hops = append(s.hops, v)
		return v
	}
	ix := g.Index() // want "call to .*helper.Index which is not provably allocation-free"
	return ix[0]
}
