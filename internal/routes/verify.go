package routes

import (
	"fmt"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// VerifyUpDown checks that every route follows zero or more up edges and
// then zero or more down edges ("A valid route never turns from a down edge
// onto an up edge").
func (t *Table) VerifyUpDown() error {
	var firstErr error
	t.Pairs(func(src, dst topology.NodeID, wires []int, _ simnet.Route) {
		if firstErr != nil {
			return
		}
		cur := src
		wentDown := false
		for _, wi := range wires {
			w := t.Net.WireByIndex(wi)
			var from topology.End
			if w.A.Node == cur {
				from = w.A
			} else {
				from = w.B
			}
			up := t.upEnd(w, from)
			if up && wentDown {
				firstErr = fmt.Errorf("routes: %s -> %s turns from down onto up at wire %d",
					t.Net.NameOf(src), t.Net.NameOf(dst), wi)
				return
			}
			if !up {
				wentDown = true
			}
			cur = w.Other(from).Node
		}
		if cur != dst {
			firstErr = fmt.Errorf("routes: %s -> %s path ends at node %d",
				t.Net.NameOf(src), t.Net.NameOf(dst), cur)
		}
	})
	return firstErr
}

// channel identifies a directed link occupancy: a wire plus the traversal
// direction, the unit of the Dally-Seitz dependency analysis the paper
// invokes for deadlock freedom.
type channel struct {
	wire  int
	fromA bool
}

// VerifyDeadlockFree builds the channel dependency graph induced by the
// route set — an arc from channel c1 to c2 whenever some route occupies c2
// while holding c1 — and reports an error if it contains a cycle (a
// potential wormhole deadlock).
func (t *Table) VerifyDeadlockFree() error {
	deps := make(map[channel]map[channel]bool)
	t.Pairs(func(src, dst topology.NodeID, wires []int, _ simnet.Route) {
		cur := src
		var prev *channel
		for _, wi := range wires {
			w := t.Net.WireByIndex(wi)
			var from topology.End
			if w.A.Node == cur {
				from = w.A
			} else {
				from = w.B
			}
			ch := channel{wire: wi, fromA: from == w.A}
			if prev != nil {
				m := deps[*prev]
				if m == nil {
					m = make(map[channel]bool)
					deps[*prev] = m
				}
				m[ch] = true
			}
			p := ch
			prev = &p
			cur = w.Other(from).Node
		}
	})
	// Iterative DFS cycle detection (colours: 0 white, 1 grey, 2 black).
	colour := make(map[channel]int, len(deps))
	var stack []channel
	for start := range deps {
		if colour[start] != 0 {
			continue
		}
		stack = append(stack[:0], start)
		path := []channel{}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			switch colour[c] {
			case 0:
				colour[c] = 1
				path = append(path, c)
				for next := range deps[c] {
					if colour[next] == 1 {
						return fmt.Errorf("routes: channel dependency cycle through wire %d", next.wire)
					}
					if colour[next] == 0 {
						stack = append(stack, next)
					}
				}
			case 1:
				colour[c] = 2
				stack = stack[:len(stack)-1]
				if len(path) > 0 && path[len(path)-1] == c {
					path = path[:len(path)-1]
				}
			default:
				stack = stack[:len(stack)-1]
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
	t.Pairs(func(src, dst topology.NodeID, _ []int, turns simnet.Route) {
		if firstErr != nil {
			return
		}
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
