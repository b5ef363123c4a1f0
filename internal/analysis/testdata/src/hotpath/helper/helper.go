// Package helper provides the cross-package callees for the h7 cases in
// the parent fixture: Fast carries the exported allocation-free fact,
// Alloc and Graph.Index do not.
package helper

// Fast reuses the caller's buffer; the annotation exports the fact that
// proves it safe to call from another package's hot path.
//
//sanlint:hotpath
func Fast(buf []int, v int) []int {
	return append(buf, v)
}

// Alloc is an ordinary allocating helper, deliberately unannotated.
func Alloc(n int) []int {
	return make([]int, n)
}

// Graph mimics topology.Network: Index returns a cached view and rebuilds
// it, allocating, when a mutation has staled it. A warm call allocates
// nothing, but the method is unannotated, so it carries no fact.
type Graph struct {
	index []int
	stale bool
}

// Index returns the cached view, rebuilding it when stale.
func (g *Graph) Index() []int {
	if g.stale || g.index == nil {
		g.index = make([]int, 8)
		g.stale = false
	}
	return g.index
}
