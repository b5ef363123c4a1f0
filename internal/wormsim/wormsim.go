// Package wormsim simulates wormhole/circuit switching with hold-and-wait
// link acquisition — the regime in which routing deadlock physically
// happens, and therefore the reason the paper derives UP*/DOWN* routes
// from its maps instead of plain shortest paths (§5.5).
//
// Each worm acquires the directed links of its path in order and holds
// everything acquired until it is delivered ("a message can form a circuit
// from the source to destination", §1.1); a worm that needs a busy link
// waits. Circular waits are true deadlocks: the simulator detects them on
// the wait-for graph and, like the Myrinet hardware, breaks them after the
// deadlock timeout ("Switches automatically detect and break message
// deadlock in 50 ms") by destroying a participant.
//
// The headline experiment (wormsim_test.go, examples): permutation traffic
// on a torus deadlocks under shortest-path routes and never under
// UP*/DOWN* — the Dally-Seitz channel-dependency argument made executable.
package wormsim

import (
	"fmt"
	"time"

	"sanmap/internal/eventq"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Stats summarises a run.
type Stats struct {
	Injected  int
	Delivered int
	// Deadlocked counts worms destroyed by deadlock breaking.
	Deadlocked int
	// CyclesBroken counts distinct circular waits resolved.
	CyclesBroken int
	// Waits counts link-acquisition attempts that had to wait.
	Waits int
	// MaxWait is the longest successful (non-fatal) wait.
	MaxWait time.Duration
	// End is the virtual time at which the last event fired.
	End time.Duration
}

// worm is one in-flight message.
type worm struct {
	id      int
	src     topology.NodeID
	dst     topology.NodeID
	hops    []simnet.DirectedHop
	next    int // index of the next link to acquire
	holding []simnet.DirectedHop
	// waiting is the link the worm is blocked on (next hop) when blocked.
	blocked   bool
	waitStart time.Duration
	dead      bool
	done      bool
	// mark is the cycle-detection stamp: equal to Sim.cycleGen when this
	// worm was visited by the current inCycle walk.
	mark uint32
}

// Sim is a one-shot wormhole simulation: inject worms, Run, read Stats.
type Sim struct {
	net    *topology.Network
	eval   *simnet.Net
	timing simnet.Timing

	owner   map[simnet.DirectedHop]*worm
	waiters map[simnet.DirectedHop][]*worm
	worms   []*worm

	events *eventq.Heap[event]
	seq    int64
	now    time.Duration
	// down, when non-nil, reports links the fault layer has taken out of
	// service; a worm that tries to acquire one is destroyed on the spot
	// (the flit hits a dead port and the hardware drops the message).
	down func(simnet.DirectedHop) bool
	// cycleGen is bumped per inCycle walk; worms stamped with it are the
	// walk's visited set (no per-call map allocation).
	cycleGen uint32

	stats Stats
}

// New creates a simulation over the network.
func New(net *topology.Network, timing simnet.Timing) *Sim {
	return &Sim{
		net: net,
		// Path evaluation uses packet semantics: legal routes are simple
		// paths; occupancy is modelled here, not in the evaluator.
		eval:    simnet.New(net, simnet.PacketModel, timing),
		timing:  timing,
		owner:   make(map[simnet.DirectedHop]*worm),
		waiters: make(map[simnet.DirectedHop][]*worm),
		events:  eventq.New(eventLess),
	}
}

// SetLinkFilter installs the link-outage predicate consulted on every
// acquisition. A nil filter (the default) restores fault-free behaviour;
// the nil check is a branch on a cold field, so the acquire hot path stays
// allocation-free and analyzer-clean either way.
func (s *Sim) SetLinkFilter(down func(simnet.DirectedHop) bool) { s.down = down }

type event struct {
	at   time.Duration
	seq  int64
	w    *worm
	kind eventKind
}

type eventKind uint8

const (
	evAcquire eventKind = iota // try to take the worm's next link
	evDeliver                  // tail drained: release everything
	evBreak                    // deadlock timeout fired
)

// eventLess orders by virtual time, sequence number breaking ties so equal
// timestamps dispatch in scheduling order.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

//sanlint:hotpath
func (s *Sim) push(at time.Duration, w *worm, kind eventKind) {
	s.events.Push(event{at: at, seq: s.seq, w: w, kind: kind})
	s.seq++
}

// Inject schedules a worm from src along the given source route at time at.
// The route must evaluate to a delivery on the quiescent network.
func (s *Sim) Inject(at time.Duration, src topology.NodeID, route simnet.Route) error {
	res, hops := s.eval.EvalPath(src, route)
	if res.Outcome != simnet.Delivered {
		return fmt.Errorf("wormsim: route %v from %s does not deliver: %v",
			route, s.net.NameOf(src), res.Outcome)
	}
	w := &worm{id: len(s.worms), src: src, dst: res.Dest, hops: hops}
	s.worms = append(s.worms, w)
	s.stats.Injected++
	s.push(at, w, evAcquire)
	return nil
}

// Run processes events to completion and returns the statistics.
//
//sanlint:hotpath
func (s *Sim) Run() Stats {
	for s.events.Len() > 0 {
		ev := s.events.Pop()
		s.now = ev.at
		w := ev.w
		if w.dead || w.done {
			continue
		}
		switch ev.kind {
		case evAcquire:
			s.acquire(w)
		case evDeliver:
			s.deliver(w)
		case evBreak:
			if w.blocked && s.now-w.waitStart >= s.timing.BlockedPortReset {
				s.kill(w)
			}
		}
	}
	s.stats.End = s.now
	return s.stats
}

// acquire attempts to take w's next link.
//
//sanlint:hotpath
func (s *Sim) acquire(w *worm) {
	if w.next >= len(w.hops) {
		// All links held; the head is at the destination. Deliver after
		// the serialisation time.
		s.push(s.now+time.Duration(simnet.MessageBytes(len(w.hops)))*s.timing.ByteTime,
			w, evDeliver)
		return
	}
	link := w.hops[w.next]
	if s.down != nil && s.down(link) {
		s.kill(w)
		return
	}
	if holder, busy := s.owner[link]; busy && holder != w {
		if !w.blocked {
			w.blocked = true
			w.waitStart = s.now
			s.stats.Waits++
			s.waiters[link] = append(s.waiters[link], w)
			// Deadlock detection on the wait-for graph; true cycles get a
			// break timer, acyclic waits simply queue.
			if s.inCycle(w) {
				s.stats.CyclesBroken++
				s.push(s.now+s.timing.BlockedPortReset, w, evBreak)
			}
		}
		return
	}
	if w.blocked {
		if wait := s.now - w.waitStart; wait > s.stats.MaxWait {
			s.stats.MaxWait = wait
		}
		w.blocked = false
	}
	s.owner[link] = w
	w.holding = append(w.holding, link)
	w.next++
	s.push(s.now+s.timing.SwitchLatency, w, evAcquire)
}

// deliver completes a worm and releases its circuit.
//
//sanlint:hotpath
func (s *Sim) deliver(w *worm) {
	w.done = true
	s.stats.Delivered++
	s.release(w)
}

// kill destroys a deadlocked worm (the hardware's deadlock break).
//
//sanlint:hotpath
func (s *Sim) kill(w *worm) {
	w.dead = true
	w.blocked = false
	s.stats.Deadlocked++
	s.release(w)
}

// release frees all links w holds and reschedules the first waiter of each.
//
//sanlint:hotpath
func (s *Sim) release(w *worm) {
	for _, link := range w.holding {
		if s.owner[link] == w {
			delete(s.owner, link)
		}
		// Wake waiters: the first live one gets an immediate acquire try.
		q := s.waiters[link]
		for len(q) > 0 {
			cand := q[0]
			q = q[1:]
			if !cand.dead && !cand.done {
				s.push(s.now, cand, evAcquire)
				break
			}
		}
		s.waiters[link] = q
	}
	w.holding = nil
}

// inCycle reports whether w participates in a circular wait: follow
// "waits-for link owned by" edges from w; a return to w is a deadlock.
//
//sanlint:hotpath
func (s *Sim) inCycle(w *worm) bool {
	// Generation stamps replace a per-call visited map: a worm whose mark
	// equals the current generation has been seen in this walk.
	s.cycleGen++
	cur := w
	for {
		if cur.next >= len(cur.hops) || !cur.blocked {
			return false
		}
		holder, busy := s.owner[cur.hops[cur.next]]
		if !busy {
			return false
		}
		if holder == w {
			return true
		}
		if holder.mark == s.cycleGen {
			return false // a cycle not through w; its own detection handles it
		}
		holder.mark = s.cycleGen
		cur = holder
	}
}
