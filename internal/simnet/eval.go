package simnet

import (
	"fmt"
	"math"

	"sanmap/internal/topology"
)

// Outcome classifies the fate of a routed message. The four route-failure
// modes are quoted from §2.2 of the paper; SelfCollision is the §2.3.1 worm
// collision ("stepping on one's tail") that the correctness proof revolves
// around.
type Outcome uint8

const (
	// Delivered: the message path ended at a host with all routing flits
	// consumed; the host received the payload.
	Delivered Outcome = iota
	// IllegalTurn: "If pᵢ' is not in {0...7}, we have made a turn resulting
	// in an illegal port."
	IllegalTurn
	// NoSuchWire: "If nᵢ has no wire at port pᵢ + aᵢ."
	NoSuchWire
	// HitHostTooSoon: "If a message arrives at a host and it still contains
	// routing flits."
	HitHostTooSoon
	// Stranded: "If the message path does not end at a host" — all flits
	// consumed at a switch; switches do not consume messages.
	Stranded
	// SelfCollision: the worm attempted to reuse a directed edge still
	// occupied by its own body; hardware deadlock-breaking destroys it.
	SelfCollision
	// SourceUnwired: the sending host has no cable; no message enters the
	// network at all. (Not in the paper's list: its model assumes attached
	// hosts. Needed here for reconfiguration scenarios.)
	SourceUnwired
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case IllegalTurn:
		return "illegal-turn"
	case NoSuchWire:
		return "no-such-wire"
	case HitHostTooSoon:
		return "hit-host-too-soon"
	case Stranded:
		return "stranded"
	case SelfCollision:
		return "self-collision"
	case SourceUnwired:
		return "source-unwired"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Model selects the worm collision semantics of §2.3.1 via the number of
// consecutive directed edges a worm's body occupies at once.
type Model struct {
	// Span is the occupancy window: a message fails when it attempts to
	// reuse a directed edge it traversed fewer than Span hops ago.
	//
	//   Span == 1        — packet (store-and-forward) routing: a message
	//                      occupies one link at a time and may reuse edges
	//                      arbitrarily. This is the trivially-correct regime
	//                      of §1.2.
	//   1 < Span < ∞     — cut-through with finite per-port buffering
	//                      ("probes reusing an edge may or may not fail").
	//   Span == Circuit  — circuit routing: any directed-edge reuse fails.
	Span int
}

// Circuit is the Span value for circuit-switched collision semantics.
const Circuit = math.MaxInt32

// Standard models.
var (
	PacketModel  = Model{Span: 1}
	CircuitModel = Model{Span: Circuit}
	// CutThroughModel approximates Myrinet's 108 bytes of per-port
	// buffering against short probe worms: the body spans a few links.
	CutThroughModel = Model{Span: 3}
)

// DirectedHop identifies one traversal of a wire: the wire index and the
// end the message exited from. Two traversals of one wire in opposite
// directions are distinct directed edges, which is what the circuit model's
// host-probe rule requires.
type DirectedHop struct {
	Wire  int
	FromA bool // true when traversed from end A to end B
}

// Result describes the evaluation of a route.
type Result struct {
	Outcome Outcome
	// Dest is the final node for Delivered and Stranded; the host hit for
	// HitHostTooSoon; the node where the failing hop was attempted for the
	// other failures.
	Dest topology.NodeID
	// EntryPort is the port of Dest on which the message arrived
	// (meaningful for Delivered, Stranded, HitHostTooSoon).
	EntryPort int
	// Hops is the number of wires traversed before termination or failure.
	Hops int
	// FailTurn is the index of the routing flit being applied when the
	// message failed, or -1.
	FailTurn int
}

// OK reports whether the message was delivered to a host.
func (r Result) OK() bool { return r.Outcome == Delivered }

// EvalCacheStats counts the route-prefix memo's behaviour (see evalScratch).
type EvalCacheStats struct {
	// Hits counts evaluations that resumed from memoized traversal state
	// (including exact repeats of the previous route).
	Hits int64
	// Misses counts evaluations walked in full from the source.
	Misses int64
	// TurnsSaved counts routing turns answered from the memo instead of
	// being traversed.
	TurnsSaved int64
	// TurnsWalked counts routing turns actually traversed.
	TurnsWalked int64
}

// HitRate reports Hits / (Hits + Misses), or 0 before any evaluation.
func (s EvalCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// String renders the counters on one line.
func (s EvalCacheStats) String() string {
	return fmt.Sprintf("evals=%d hits=%d (%.0f%%) turns-saved=%d turns-walked=%d",
		s.Hits+s.Misses, s.Hits, 100*s.HitRate(), s.TurnsSaved, s.TurnsWalked)
}

// stepState is the walker's position after applying some prefix of a route:
// the end the message last arrived at, and how many directed hops it has
// traversed (the prefix of evalScratch.hops that belongs to it).
type stepState struct {
	cur   topology.End
	nhops int32
}

// evalScratch holds the reusable buffers and the route-prefix memo for one
// evaluator. Successive probes from a mapping frontier share long route
// prefixes (every candidate turn extends the same frontier route, and a
// switch probe's loopback starts with the host probe's route), so the memo
// keeps the per-turn traversal state of the most recent walk; the next
// evaluation resumes after the longest common prefix and only walks its
// novel suffix. The memo is keyed on source host, collision model, the
// Net's responder epoch and the topology's structural version, so any
// reconfiguration invalidates it. All buffers are reused across calls; in
// steady state an evaluation performs zero heap allocations. A Net is not
// safe for concurrent use — see ConcurrentNet.
type evalScratch struct {
	// hops is the directed-hop trace of the current walk (shared between
	// the live walk and the memo: a resumed walk truncates it to the common
	// prefix and appends from there).
	hops []DirectedHop

	valid   bool            // memo holds a usable previous walk
	from    topology.NodeID // memo key: source host
	model   Model           // memo key: collision model
	epoch   uint64          // memo key: Net state epoch
	topoVer uint64          // memo key: topology.Network.Version
	route   Route           // the previous route (owned copy, buffer reused)
	// states[i] is the walker position after applying i turns of route;
	// states[0] follows the hop out of the source host. len(states)-1 is the
	// number of turns the previous walk applied before terminating.
	states     []stepState
	result     Result // result of the previous walk (for exact repeats)
	resultHops int    // len(hops) when result was produced
	stats      EvalCacheStats
}

// step outcomes of traverse.
const (
	stepOK = iota
	stepNoWire
	stepCollision
)

// reflectorKeyPortBits is the width of the port field in synthetic
// loopback edge keys; no fabric has 2^16 ports on one node.
const reflectorKeyPortBits = 16

// traverse crosses the wire at (node, outPort), appending the directed hop
// on success. Loopback plugs reflect the message back into the same port;
// they occupy a synthetic directed edge so collision semantics still apply.
//
//sanlint:hotpath
func (s *evalScratch) traverse(topo *topology.Network, node topology.NodeID, outPort int, span int) (topology.End, int) {
	fromEnd := topology.End{Node: node, Port: outPort}
	var hop DirectedHop
	var dest topology.End
	wi := topo.WireAt(node, outPort)
	switch {
	case wi >= 0:
		w := topo.WireByIndex(wi)
		hop = DirectedHop{Wire: wi, FromA: w.A == fromEnd}
		dest = w.Other(fromEnd)
	case topo.ReflectorAt(node, outPort):
		// A loopback plug is a cable from the port back to itself:
		// successive crossings by one worm alternate direction, exactly
		// like out-and-back over a two-ended wire, so a probe may bounce
		// off it once (out + back) under the circuit model but not twice.
		// The synthetic edge key packs (node, port) with the port in the
		// low bits, shifted below -1 to stay disjoint from real wire
		// indices. Ports are bounded far under the field width, so the
		// packing stays unique on variable-radix fabrics (where
		// node*SwitchPorts+port would collide) — and unlike the CSR dense
		// end id it needs no index, keeping this branch allocation-free
		// even when a mutation has staled the cache.
		key := -2 - (int(node)<<reflectorKeyPortBits | outPort)
		crossings := 0
		for _, h := range s.hops {
			if h.Wire == key {
				crossings++
			}
		}
		hop = DirectedHop{Wire: key, FromA: crossings%2 == 0}
		dest = fromEnd
	default:
		return topology.End{}, stepNoWire
	}
	// Self-collision: directed edge still occupied by our own body.
	if span > 1 {
		n := len(s.hops)
		lo := 0
		if span < n {
			lo = n - (span - 1)
		}
		for i := lo; i < n; i++ {
			if s.hops[i] == hop {
				return topology.End{}, stepCollision
			}
		}
	}
	s.hops = append(s.hops, hop)
	return dest, stepOK
}

// finish records the walk's outcome in the memo and returns it.
//
//sanlint:hotpath
func (s *evalScratch) finish(res Result) Result {
	s.result = res
	s.resultHops = len(s.hops)
	s.valid = true
	return res
}

// keyOK reports whether the memo's previous walk is resumable for the
// given key — same source, collision model, responder epoch and structural
// version. Batch evaluation validates the key once and keeps it validated
// across the batch instead of re-deriving it per probe.
//
//sanlint:hotpath
func (s *evalScratch) keyOK(from topology.NodeID, m Model, epoch, topoVer uint64) bool {
	return s.valid && s.from == from && s.model == m && s.epoch == epoch && s.topoVer == topoVer
}

// evalRoute walks the message path of §2.2 from host `from` with the given
// routing address, under collision model m, resuming from the memoized
// prefix of the previous walk when the keys match (see evalScratch).
//
//sanlint:hotpath
func evalRoute(topo *topology.Network, from topology.NodeID, route Route, m Model, s *evalScratch, epoch uint64) Result {
	if topo.KindOf(from) != topology.HostNode {
		panic(fmt.Sprintf("simnet: source %d is not a host", from))
	}
	ver := topo.Version()
	return evalResume(topo, from, route, m, s, epoch, ver, s.keyOK(from, m, epoch, ver))
}

// evalResume is the walk body of evalRoute with the source-kind check and
// memo-key validation hoisted to the caller: keyed reports that the memo
// holds a resumable walk for (from, m, epoch, ver). Net.submit validates the
// key once for a ProbeID's two walks — after a completed walk the memo key
// equals the caller's, so the validation collapses to the scratch's valid bit.
//
//sanlint:hotpath
func evalResume(topo *topology.Network, from topology.NodeID, route Route, m Model, s *evalScratch, epoch, ver uint64, keyed bool) Result {
	resume := -1
	if keyed {
		// Longest common prefix with the previous route.
		maxCmp := len(route)
		if len(s.route) < maxCmp {
			maxCmp = len(s.route)
		}
		lcp := 0
		for lcp < maxCmp && route[lcp] == s.route[lcp] {
			lcp++
		}
		if lcp == len(route) && len(route) == len(s.route) {
			// Exact repeat: replay the previous result without walking.
			s.stats.Hits++
			s.stats.TurnsSaved += int64(len(route))
			s.hops = s.hops[:s.resultHops]
			return s.result
		}
		// Resume after the common prefix, bounded by how far the previous
		// walk got before terminating (a failed walk has no state beyond
		// its failure turn).
		resume = lcp
		if walked := len(s.states) - 1; resume > walked {
			resume = walked
		}
	}

	var cur topology.End
	start := 0
	if resume >= 0 {
		s.stats.Hits++
		s.stats.TurnsSaved += int64(resume)
		st := s.states[resume]
		cur = st.cur
		s.hops = s.hops[:st.nhops]
		s.states = s.states[:resume+1]
		s.route = append(s.route[:resume], route[resume:]...)
		start = resume
	} else {
		s.stats.Misses++
		s.valid = false
		s.hops = s.hops[:0]
		if topo.WireAt(from, topology.HostPort) < 0 {
			return Result{Outcome: SourceUnwired, Dest: from, FailTurn: -1}
		}
		// First hop: out of the source host (cannot self-collide).
		next, status := s.traverse(topo, from, topology.HostPort, m.Span)
		if status != stepOK {
			return Result{Outcome: NoSuchWire, Dest: from, FailTurn: -1}
		}
		cur = next
		s.states = append(s.states[:0], stepState{cur: cur, nhops: int32(len(s.hops))})
		s.route = append(s.route[:0], route...)
		s.from, s.model, s.epoch, s.topoVer = from, m, epoch, ver
	}

	for i := start; i < len(route); i++ {
		if topo.KindOf(cur.Node) == topology.HostNode {
			return s.finish(Result{Outcome: HitHostTooSoon, Dest: cur.Node, EntryPort: cur.Port,
				Hops: len(s.hops), FailTurn: i})
		}
		out := cur.Port + int(route[i])
		if out < 0 || out >= topo.NumPorts(cur.Node) {
			return s.finish(Result{Outcome: IllegalTurn, Dest: cur.Node, EntryPort: cur.Port,
				Hops: len(s.hops), FailTurn: i})
		}
		next, status := s.traverse(topo, cur.Node, out, m.Span)
		if status == stepCollision {
			return s.finish(Result{Outcome: SelfCollision, Dest: cur.Node, EntryPort: cur.Port,
				Hops: len(s.hops), FailTurn: i})
		}
		if status == stepNoWire {
			return s.finish(Result{Outcome: NoSuchWire, Dest: cur.Node, EntryPort: cur.Port,
				Hops: len(s.hops), FailTurn: i})
		}
		cur = next
		s.states = append(s.states, stepState{cur: cur, nhops: int32(len(s.hops))})
		s.stats.TurnsWalked++
	}

	res := Result{Dest: cur.Node, EntryPort: cur.Port, Hops: len(s.hops), FailTurn: -1}
	if topo.KindOf(cur.Node) == topology.HostNode {
		res.Outcome = Delivered
	} else {
		res.Outcome = Stranded
	}
	return s.finish(res)
}
