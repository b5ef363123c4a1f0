package routes

import (
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Path is the wire path of one route, derived from its turns and the map:
// the route leaves its source host by the host port, and at each switch
// leaves by the port it entered on plus the next turn. The zero Path is
// empty. A Path aliases its source leaf's arena; it allocates nothing.
type Path struct {
	lf     *leaf
	src    topology.NodeID
	lo, hi uint32 // the route's bounds in lf's arena
}

// Len reports the number of wires on the path: one more than the route has
// turns, or 0 for the zero Path.
//
//sanlint:hotpath
func (p Path) Len() int {
	if p.lf == nil {
		return 0
	}
	return int(p.hi-p.lo) + 1
}

// Route returns the turns the path follows, aliasing the table's arena like
// Table.Route.
//
//sanlint:hotpath
func (p Path) Route() simnet.Route {
	if p.lf == nil {
		return nil
	}
	return p.lf.turns[p.lo:p.hi:p.hi]
}

// Walk returns a cursor before the path's first wire:
//
//	for w := p.Walk(); w.Next(); {
//		use(w.Wire(), w.From())
//	}
//
//sanlint:hotpath
func (p Path) Walk() Walker {
	if p.lf == nil {
		return Walker{} // past the last turn already
	}
	return Walker{lf: p.lf, pos: p.lo, end: p.hi, to: ^p.lf.ix.EndID(p.src, topology.HostPort)}
}

// Walker steps along a Path one wire at a time, in the end ids of the
// table's wiring snapshot. Its four fields fit in 24 bytes, small enough
// for the compiler to keep them in registers.
type Walker struct {
	lf       *leaf
	pos, end uint32 // the next turn to take and the route's end, in lf's arena
	// to is the end the current wire is left by; before the first wire it
	// is ^e for the source's host end e.
	to int32
}

// Next moves onto the path's next wire and reports whether there was one.
//
//sanlint:hotpath
func (w *Walker) Next() bool {
	switch {
	case w.to < 0:
		w.to = w.lf.peer[^w.to]
	case w.pos == w.end:
		return false
	default:
		// Ports of one node have consecutive end ids, so the turn applies
		// to the id as it does to the port.
		w.to = w.lf.peer[w.to+int32(w.lf.turns[w.pos])]
		w.pos++
	}
	return true
}

// Wire returns the current wire's index.
//
//sanlint:hotpath
func (w *Walker) Wire() int { return int(w.lf.link[w.to] >> 1) }

// Channel returns the current wire with its direction, the unit of the
// deadlock analysis and the link numbering loadsim and place share:
// 2*Wire() when the route enters the wire by its A end, 2*Wire()+1 by its
// B end.
//
//sanlint:hotpath
func (w *Walker) Channel() int { return int(w.lf.link[w.to]) }

// From returns the end the route enters the current wire by.
//
//sanlint:hotpath
func (w *Walker) From() topology.End { return w.lf.at[w.lf.peer[w.to]] }

// To returns the end the route leaves the current wire by.
//
//sanlint:hotpath
func (w *Walker) To() topology.End { return w.lf.at[w.to] }

// ends is the wiring a table was computed on, as flat per-end tables: the
// only input of a walk and of a leaf's build, so walks and builds keep
// following it if Net is changed later. End ids are the CSR index's
// (topology.Index.EndID); at[e] is end e itself, peer[e] the end across
// its wire, and link[e] the channel that arrives by e, as Walker.Channel
// numbers them. peer and link are -1 at an empty port.
type ends struct {
	ix   *topology.Index
	at   []topology.End
	peer []int32
	link []int32
}

func newEnds(net *topology.Network) ends {
	ix := net.Index()
	n := ix.NumEnds()
	e := ends{ix: ix, at: make([]topology.End, n), peer: make([]int32, n), link: make([]int32, n)}
	for id := topology.NodeID(0); int(id) < net.NumNodes(); id++ {
		for port := range net.NumPorts(id) {
			k, at := ix.EndID(id, port), topology.End{Node: id, Port: port}
			e.at[k], e.peer[k], e.link[k] = at, -1, -1
			if wi := net.WireAt(id, port); wi >= 0 {
				w := net.WireByIndex(wi)
				far := w.Other(at)
				e.peer[k], e.link[k] = ix.EndID(far.Node, far.Port), int32(2*wi)
				if at == w.A {
					e.link[k]++ // arriving at A: entered by B
				}
			}
		}
	}
	return e
}
