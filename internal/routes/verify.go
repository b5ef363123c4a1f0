package routes

import (
	"fmt"
	"slices"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// VerifyUpDown checks that every route follows zero or more up edges and
// then zero or more down edges ("A valid route never turns from a down edge
// onto an up edge").
func (t *Table) VerifyUpDown() error {
	var firstErr error
	t.writeAll()
	t.pairs(func(src, dst topology.NodeID, p Path) {
		if firstErr != nil {
			return
		}
		end, wentDown := src, false
		for w := p.Walk(); w.Next(); {
			up := t.isUp(w.From(), w.To())
			if up && wentDown {
				firstErr = fmt.Errorf("routes: %s -> %s turns from down onto up at wire %d",
					t.Net.NameOf(src), t.Net.NameOf(dst), w.Wire())
				return
			}
			if !up {
				wentDown = true
			}
			end = w.To().Node
		}
		if end != dst {
			firstErr = fmt.Errorf("routes: %s -> %s path ends at node %d",
				t.Net.NameOf(src), t.Net.NameOf(dst), end)
		}
	})
	return firstErr
}

// VerifyDeadlockFree builds the channel dependency graph induced by the
// route set — an arc from channel c1 to c2 whenever some route occupies c2
// while holding c1 — and reports an error if it contains a cycle (a
// potential wormhole deadlock). A channel is a directed link occupancy, the
// unit of the Dally-Seitz dependency analysis the paper invokes for
// deadlock freedom, numbered densely two per wire slot (Walker.Channel).
// The arcs are deduplicated into a CSR graph and searched depth-first from
// each channel in ascending order, each channel's arcs in ascending order,
// so the cycle reported is the same on every call.
func (t *Table) VerifyDeadlockFree() error {
	C := 2 * t.Net.NumWireSlots()
	t.writeAll()
	// arcs calls f for every consecutive channel pair on every route.
	arcs := func(f func(c1, c2 int32)) {
		t.pairs(func(_, _ topology.NodeID, p Path) {
			prev := int32(-1)
			for w := p.Walk(); w.Next(); {
				c := int32(w.Channel())
				if prev >= 0 {
					f(prev, c)
				}
				prev = c
			}
		})
	}
	// Count each channel's arcs, place them, then deduplicate each
	// channel's list in place (mark[c2] == c1+1: already kept) and sort it.
	off := make([]int32, C+1)
	arcs(func(c1, _ int32) { off[c1+1]++ })
	for c := range C {
		off[c+1] += off[c]
	}
	succ, next := make([]int32, off[C]), slices.Clone(off[:C])
	arcs(func(c1, c2 int32) {
		succ[next[c1]] = c2
		next[c1]++
	})
	mark := make([]int32, C)
	n := int32(0)
	for c := range C {
		lo := n
		for _, c2 := range succ[off[c]:off[c+1]] {
			if mark[c2] != int32(c)+1 {
				mark[c2] = int32(c) + 1
				succ[n] = c2
				n++
			}
		}
		slices.Sort(succ[lo:n])
		off[c] = lo
	}
	off[C] = n
	// Iterative DFS (colours: 0 unvisited, 1 on the stack, 2 done); a
	// frame is a channel and the index of its next arc.
	colour := make([]uint8, C)
	var stack [][2]int32
	for start := range C {
		if colour[start] != 0 {
			continue
		}
		colour[start] = 1
		stack = append(stack[:0], [2]int32{int32(start), off[start]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f[1] == off[f[0]+1] {
				colour[f[0]] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			c := succ[f[1]]
			f[1]++
			switch colour[c] {
			case 1:
				return fmt.Errorf("routes: channel dependency cycle through wire %d", c/2)
			case 0:
				colour[c] = 1
				stack = append(stack, [2]int32{c, off[c]})
			}
		}
	}
	return nil
}

// VerifyDelivery evaluates every turn route on the given network under the
// packet model (legal routes are simple paths, so the model is irrelevant)
// and checks it is delivered to the intended destination host. When the
// table was computed from a *mapped* network, pass the mapped network's
// simulator: delivery there transfers to the actual network because the two
// are isomorphic with identical relative turns (Lemma 2).
func (t *Table) VerifyDelivery(net *topology.Network) error {
	sn := simnet.New(net, simnet.PacketModel, simnet.DefaultTiming())
	var firstErr error
	t.writeAll()
	t.pairs(func(src, dst topology.NodeID, p Path) {
		if firstErr != nil {
			return
		}
		turns := p.Route()
		res := sn.Eval(src, turns)
		if res.Outcome != simnet.Delivered || res.Dest != dst {
			firstErr = fmt.Errorf("routes: route %v from %s to %s: %s at node %d",
				turns, net.NameOf(src), net.NameOf(dst), res.Outcome, res.Dest)
		}
	})
	return firstErr
}

// HostTable is the per-interface route database the system "distributes ...
// to all network interfaces": destination host name → source route.
type HostTable struct {
	Host   string
	Routes map[string]simnet.Route
}

// Distribute produces one HostTable per host, keyed by host name.
func (t *Table) Distribute() map[string]*HostTable {
	out := make(map[string]*HostTable, len(t.hosts))
	for _, src := range t.hosts {
		ht := &HostTable{Host: t.Net.NameOf(src), Routes: make(map[string]simnet.Route, len(t.hosts)-1)}
		for _, dst := range t.hosts {
			if r, ok := t.Route(src, dst); ok {
				ht.Routes[t.Net.NameOf(dst)] = r
			}
		}
		out[ht.Host] = ht
	}
	return out
}
