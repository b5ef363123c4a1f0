package connet

import (
	"time"

	"sanmap/internal/desim"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Net is the shared contended network. All endpoints must run as processes
// of the same desim engine, and every Inject as a callback on it; the
// engine's one-event-at-a-time execution is the synchronisation.
type Net struct {
	quiet  *simnet.Net // route evaluation + silent-host bookkeeping
	timing simnet.Timing
	// busyUntil records, per directed link, when its current reservation
	// ends.
	busyUntil map[simnet.DirectedHop]time.Duration
	// Blocked counts worms destroyed by the forward-reset timeout.
	Blocked int64
	// Delayed counts worms that waited for at least one link.
	Delayed int64
	// Worms counts all injected worms (probes, replies and traffic).
	Worms int64
}

// New wraps a topology. The collision model governs worm self-collision
// exactly as in the quiescent transport.
func New(topo *topology.Network, model simnet.Model, timing simnet.Timing) *Net {
	return &Net{
		quiet:     simnet.New(topo, model, timing),
		timing:    timing,
		busyUntil: make(map[simnet.DirectedHop]time.Duration),
	}
}

// Quiet exposes the underlying quiescent evaluator (for responder setup).
func (n *Net) Quiet() *simnet.Net { return n.quiet }

// send injects a worm at virtual time t and walks it hop by hop against
// the link reservations. It returns the delivery time and whether the worm
// survived contention. The route-level result (failure modes,
// self-collision) must already have been computed by the caller.
func (n *Net) send(t time.Duration, hops []simnet.DirectedHop, msgBytes int) (time.Duration, bool) {
	n.Worms++
	occupancy := time.Duration(msgBytes) * n.timing.ByteTime
	arr := t
	delayed := false
	for _, hop := range hops {
		if b, ok := n.busyUntil[hop]; ok && b > arr {
			wait := b - arr
			if wait > n.timing.BlockedPortReset {
				n.Blocked++
				return 0, false
			}
			arr = b
			delayed = true
		}
		n.busyUntil[hop] = arr + occupancy
		arr += n.timing.SwitchLatency
	}
	if delayed {
		n.Delayed++
	}
	return arr + occupancy, true
}

// Inject sends one application traffic worm of the given payload size from
// host src along a precomputed source route at virtual time at. It needs no
// process: a traffic source is a timed callback that calls Inject and
// re-arms itself. It returns when src's interface is free again (cut-through
// injection: the host is busy for the serialisation time, not the full
// transit; a source sends its next worm no earlier) and whether the worm
// was delivered (route valid, no contention kill). A route that does not
// deliver costs the host no time.
func (n *Net) Inject(at time.Duration, src topology.NodeID, route simnet.Route, payloadBytes int) (free time.Duration, delivered bool) {
	res, hops := n.quiet.EvalPath(src, route)
	if res.Outcome != simnet.Delivered {
		return at, false
	}
	msgBytes := simnet.MessageBytes(len(route)) + payloadBytes
	_, alive := n.send(at, hops, msgBytes)
	return at + time.Duration(msgBytes)*n.timing.ByteTime, alive
}

// BusyUntil reports when the directed link's last reservation ends: the
// state the link rule leaves behind, which differential tests compare.
func (n *Net) BusyUntil(hop simnet.DirectedHop) time.Duration { return n.busyUntil[hop] }

// Endpoint binds the contended net to one host and one simulation process.
// It implements simnet.Prober: each collected probe advances the process's
// virtual time by the probe's true round-trip (or the response timeout).
type Endpoint struct {
	net   *Net
	host  topology.NodeID
	proc  *desim.Proc
	stats simnet.Stats
	// OnHostProbe, when set, fires for every delivered host probe with the
	// source and destination hosts — the hook the election protocol uses to
	// exchange interface addresses (§4.2: "the participants elect a leader
	// by comparing network interface addresses carried in every message").
	OnHostProbe func(src, dst topology.NodeID)
}

// Endpoint creates a prober for host h bound to process proc.
func (n *Net) Endpoint(h topology.NodeID, proc *desim.Proc) *Endpoint {
	if n.quiet.Topology().KindOf(h) != topology.HostNode {
		panic("connet: endpoint must be a host")
	}
	return &Endpoint{net: n, host: h, proc: proc}
}

// Host returns the bound host.
func (e *Endpoint) Host() topology.NodeID { return e.host }

// LocalHost implements simnet.Prober.
func (e *Endpoint) LocalHost() string { return e.net.quiet.Topology().NameOf(e.host) }

// Clock implements simnet.Prober: the process's virtual time.
func (e *Endpoint) Clock() time.Duration { return e.proc.Now() }

// MaxPorts implements simnet.Prober.
func (e *Endpoint) MaxPorts() int { return e.net.quiet.Topology().MaxPorts() }

// Stats implements simnet.Prober.
func (e *Endpoint) Stats() simnet.Stats { return e.stats }

// Submit implements simnet.Prober: pay the per-probe host overhead,
// evaluate the route, inject the worm (and the reply worm for host probes)
// into the contended links, and compute the virtual completion time. It
// does NOT sleep until the response: Collect does, which is what lets a
// pipelined caller keep several probes' timeouts in flight while other
// processes' traffic continues to contend the links at the true injection
// times.
func (e *Endpoint) Submit(p simnet.Probe) simnet.ProbeResult {
	r := simnet.ProbeResult{Probe: p}
	var route simnet.Route
	wantLoopback := false
	switch p.Kind {
	case simnet.ProbeSwitch:
		route = p.Route.Loopback()
		wantLoopback = true
		e.stats.SwitchProbes++
	case simnet.ProbeRaw:
		route = p.Route
		wantLoopback = true
		e.stats.SwitchProbes++
	case simnet.ProbeHost:
		route = p.Route
		e.stats.HostProbes++
	default:
		r.Err = simnet.ErrUnsupported
		r.Done = e.proc.Now()
		return r
	}
	issue := e.proc.Now()
	e.proc.Sleep(e.net.timing.HostOverhead)
	res, hops := e.net.quiet.EvalPath(e.host, route)
	now := e.proc.Now()

	fail := func(err error) simnet.ProbeResult {
		r.Err = err
		r.Done = now + e.net.timing.ResponseTimeout
		r.Latency = r.Done - issue
		return r
	}
	done := time.Duration(0)
	if wantLoopback {
		if res.Outcome != simnet.Delivered || res.Dest != e.host {
			return fail(simnet.ErrTimeout)
		}
		at, alive := e.net.send(now, hops, simnet.MessageBytes(len(route)))
		if !alive {
			return fail(simnet.ErrTimeout)
		}
		done = at
		e.stats.SwitchHits++
	} else {
		// Host probe: outbound worm, then a reply over the reversed path.
		if res.Outcome != simnet.Delivered {
			return fail(simnet.ErrTimeout)
		}
		if !e.net.quiet.Responds(res.Dest) {
			return fail(simnet.ErrNoResponder)
		}
		at, alive := e.net.send(now, hops, simnet.MessageBytes(len(route)))
		if !alive {
			return fail(simnet.ErrTimeout)
		}
		// The responder daemon turns the message around after its own
		// overhead.
		replyStart := at + e.net.timing.HostOverhead
		back, alive := e.net.send(replyStart, reverseHops(hops), simnet.MessageBytes(len(route)))
		if !alive {
			return fail(simnet.ErrTimeout)
		}
		if e.OnHostProbe != nil {
			e.OnHostProbe(e.host, res.Dest)
		}
		done = back
		e.stats.HostHits++
		r.Host = e.net.quiet.Topology().NameOf(res.Dest)
	}
	r.OK = true
	r.Done = done
	r.Latency = r.Done - issue
	return r
}

// Collect implements simnet.Prober: sleep the process until the
// result's completion time (no-op if it already passed).
func (e *Endpoint) Collect(r simnet.ProbeResult) {
	if d := r.Done - e.proc.Now(); d > 0 {
		e.proc.Sleep(d)
	}
}

// Probes implements simnet.Prober.
func (e *Endpoint) Probes() simnet.ProbeCaps {
	return simnet.CapHost | simnet.CapSwitch | simnet.CapRaw
}

func reverseHops(hops []simnet.DirectedHop) []simnet.DirectedHop {
	out := make([]simnet.DirectedHop, len(hops))
	for i, h := range hops {
		out[len(hops)-1-i] = simnet.DirectedHop{Wire: h.Wire, FromA: !h.FromA}
	}
	return out
}
