package simnet

import (
	"fmt"
	"time"

	"sanmap/internal/topology"
)

// Timing models the latency constants of the Berkeley NOW's Myrinet
// hardware (§1.1) and of the user-level mapper implementation (§5.2: probe
// timings are dominated by per-probe software overhead, and "probes that do
// not generate responses are more expensive than others because the message
// time-out period is longer than the time of an average round-trip").
type Timing struct {
	// SwitchLatency is the per-hop cut-through latency (paper: worst case
	// 550 ns with no contention).
	SwitchLatency time.Duration
	// ByteTime is the per-byte serialisation time on a link (paper: each
	// link supports 1.28 Gb/s, i.e. 6.25 ns per byte); with cut-through the
	// message pays it once, pipelined across hops.
	ByteTime time.Duration
	// HostOverhead is the per-probe software cost at the mapper: active
	// message send/receive through the SBUS-attached interface.
	HostOverhead time.Duration
	// ResponseTimeout is how long the mapper waits before declaring a probe
	// unanswered ("nothing").
	ResponseTimeout time.Duration
	// BlockedPortReset is the switch firmware timeout after which a blocked
	// worm is cleared with a forward reset message (paper: 55 ms, set in
	// switch ROMs). Used by the discrete-event transport under traffic.
	BlockedPortReset time.Duration
}

// DefaultTiming reproduces the order of magnitude of the paper's Fig 7
// timings when combined with the paper's probe counts.
func DefaultTiming() Timing {
	return Timing{
		SwitchLatency:    550 * time.Nanosecond,
		ByteTime:         6 * time.Nanosecond, // ≈1.28 Gb/s
		HostOverhead:     250 * time.Microsecond,
		ResponseTimeout:  750 * time.Microsecond,
		BlockedPortReset: 55 * time.Millisecond,
	}
}

// probe message sizes in bytes, after the paper's message format (header
// flit, routing flits, payload, 8-bit CRC, tail flit).
const (
	probeEnvelopeBytes = 4  // header + CRC + tail + type
	probePayloadBytes  = 16 // mapper id + sequence + reverse-route room
)

// Stats counts probes and their outcomes, in the categories of Fig 6.
type Stats struct {
	HostProbes   int64 // host-probe messages sent
	HostHits     int64 // ...that produced a host-name response
	SwitchProbes int64 // switch-probe (loopback) messages sent
	SwitchHits   int64 // ...that returned to the mapper
}

// TotalProbes is the total message count (the paper's primary algorithmic
// cost metric).
func (s Stats) TotalProbes() int64 { return s.HostProbes + s.SwitchProbes }

// Hits is the total number of probes that generated responses.
func (s Stats) Hits() int64 { return s.HostHits + s.SwitchHits }

// Net is the quiescent-network transport: probes execute instantaneously
// on a virtual clock, one at a time, exactly matching the paper's §2-§3
// model assumptions ("the network is quiescent during mapping and thus
// worms can only deadlock on themselves").
//
// A Net is not safe for concurrent use; the discrete-event ConcurrentNet
// builds on it for the election, parallel-mapping and cross-traffic
// experiments.
type Net struct {
	topo    *topology.Network
	model   Model
	timing  Timing
	clock   time.Duration
	stats   Stats
	scratch evalScratch
	// epoch counts responder/configuration changes; the route-prefix memo in
	// scratch is keyed on it (plus the topology's structural version), so any
	// state change invalidates memoized traversal automatically. Every method
	// writing topo, model, timing or silent bumps it. A skipped bump fails
	// TestEvalCacheEpochInvalidation, a skipped topology version bump
	// TestEvalCacheTopologyInvalidation.
	epoch uint64
	// loopBuf is the reusable buffer for loopback route expansion in submit.
	loopBuf Route
	// mtVal/mtVer cache the topology-derived turn bound (largest radix
	// minus one); derived state, revalidated against the structural
	// version on use, so writing it bumps no epoch.
	mtVal Turn
	mtVer uint64
	mtOK  bool
	// responder marks hosts running a mapper daemon; only they answer
	// host-probes. Hosts absent from the map respond (default true).
	silent map[topology.NodeID]bool
	// probeLog, when non-nil, receives every probe issued (testing hook).
	probeLog func(kind string, from topology.NodeID, r Route, ok bool)
	// selfID enables the §6 self-identifying-switch oracle (ProbeID).
	selfID bool
	// injector, when non-nil, is the fault-injection hook consulted around
	// every probe (see Injector). The nil check keeps the fault-free
	// configuration on the zero-allocation fast path.
	injector Injector
}

// Injector is the fault-injection hook the transport consults around every
// probe. Implementations live outside the evaluation hot path (see
// internal/faults); every use is guarded by a nil check so a transport with
// no injector installed behaves — and allocates — exactly as before.
type Injector interface {
	// Advance applies every scheduled fault with virtual time <= now. It is
	// called before the probe is evaluated, so a fault scheduled at t
	// affects the first probe issued at or after t.
	Advance(now time.Duration)
	// FilterProbe inspects one classified probe and may override its
	// outcome: a non-nil error turns the probe into a miss carrying that
	// error (a response suppressed in flight, or a failure attributed to
	// injected ground truth). kind is the probe kind, route the route the
	// evaluator actually walked (loopback-expanded for switch-class
	// probes), ok the pre-fault verdict; res is the evaluator's result and
	// hops the directed hops the message traversed. route, res and hops
	// alias transport scratch state and are valid only during the call.
	FilterProbe(kind ProbeKind, route Route, ok bool, res Result, hops []DirectedHop) error
}

// New wraps a topology in a quiescent transport with the given collision
// model and timing.
func New(topo *topology.Network, model Model, timing Timing) *Net {
	if model.Span < 1 {
		panic("simnet: Model.Span must be >= 1")
	}
	return &Net{topo: topo, model: model, timing: timing}
}

// NewDefault uses the circuit collision model (the paper's first, stricter
// proof model) and default timing.
func NewDefault(topo *topology.Network) *Net {
	return New(topo, CircuitModel, DefaultTiming())
}

// Topology returns the underlying network (read-only by convention).
func (n *Net) Topology() *topology.Network { return n.topo }

// Model returns the collision model in force.
func (n *Net) Model() Model { return n.model }

// Timing returns the timing constants in force.
func (n *Net) Timing() Timing { return n.timing }

// Clock returns elapsed virtual time.
func (n *Net) Clock() time.Duration { return n.clock }

// ResetClock zeroes the virtual clock and the probe statistics.
func (n *Net) ResetClock() {
	n.clock = 0
	n.stats = Stats{}
}

// AdvanceClock adds dt of non-probe work (e.g. mapper-side computation).
func (n *Net) AdvanceClock(dt time.Duration) { n.clock += dt }

// Stats returns the probe counters.
func (n *Net) Stats() Stats { return n.stats }

// SetResponder marks whether host h runs a mapper daemon and therefore
// answers host-probes. All hosts respond by default. Silent hosts are the
// mechanism behind Fig 9: probes to them cost the full response timeout
// and they contribute no merge anchors.
func (n *Net) SetResponder(h topology.NodeID, responds bool) {
	if n.topo.KindOf(h) != topology.HostNode {
		panic(fmt.Sprintf("simnet: %d is not a host", h))
	}
	if n.silent == nil {
		n.silent = make(map[topology.NodeID]bool)
	}
	if responds {
		delete(n.silent, h)
	} else {
		n.silent[h] = true
	}
	n.epoch++
}

// SetInjector installs (nil removes) the fault-injection hook. The epoch is
// bumped because the injector may mutate routing-relevant state from its
// very first Advance.
func (n *Net) SetInjector(i Injector) {
	n.injector = i
	n.epoch++
}

// Reconfigure bumps the transport's state epoch, invalidating any memoized
// route-traversal state. Structural topology edits (Connect, AddReflector,
// RemoveWire) are detected automatically through the topology's version
// counter; call Reconfigure after out-of-band changes the transport cannot
// observe.
func (n *Net) Reconfigure() { n.epoch++ }

// EvalCacheStats returns the route-prefix memo's hit/miss counters.
func (n *Net) EvalCacheStats() EvalCacheStats { return n.scratch.stats }

// MaxPorts reports the largest port count of any node in the underlying
// topology — the switch radix a mapper must plan for, which endpoints
// report through Prober.MaxPorts.
func (n *Net) MaxPorts() int { return n.topo.MaxPorts() }

// MaxTurn reports the largest legal turn magnitude on this fabric
// (largest radix minus one, never below the paper's default bound of
// MaxTurn=7 so the zero-value behaviour of small fabrics is unchanged).
// The value is cached and revalidated against the topology's structural
// version.
func (n *Net) MaxTurn() Turn {
	if !n.mtOK || n.mtVer != n.topo.Version() {
		mt := n.topo.MaxPorts() - 1
		if mt < MaxTurn {
			mt = MaxTurn
		}
		n.mtVal = Turn(mt)
		n.mtVer = n.topo.Version()
		n.mtOK = true
	}
	return n.mtVal
}

// Responds reports whether host h answers host-probes.
func (n *Net) Responds(h topology.NodeID) bool { return !n.silent[h] }

// SetProbeLog installs a hook invoked after every probe (nil to remove).
func (n *Net) SetProbeLog(f func(kind string, from topology.NodeID, r Route, ok bool)) {
	n.probeLog = f
}

// Eval evaluates a raw route without sending a probe (no clock or counter
// effects). Exposed for tests, route verification and tooling.
//
//sanlint:hotpath
func (n *Net) Eval(from topology.NodeID, route Route) Result {
	return evalRoute(n.topo, from, route, n.model, &n.scratch, n.epoch)
}

// EvalModel evaluates a route under an explicit collision model.
//
//sanlint:hotpath
func (n *Net) EvalModel(from topology.NodeID, route Route, m Model) Result {
	return evalRoute(n.topo, from, route, m, &n.scratch, n.epoch)
}

// EvalPath evaluates a route and additionally returns the directed hops the
// message traversed before terminating or failing. The returned slice is
// freshly allocated. Used by the discrete-event transport, which needs the
// exact links a worm occupies to model contention.
func (n *Net) EvalPath(from topology.NodeID, route Route) (Result, []DirectedHop) {
	res := evalRoute(n.topo, from, route, n.model, &n.scratch, n.epoch)
	return res, append([]DirectedHop(nil), n.scratch.hops...)
}

// MessageBytes estimates the wire size of a probe message with the given
// number of routing flits, per the paper's message format (header flit,
// routing flits, payload, 8-bit CRC, tail flit).
//
//sanlint:hotpath
func MessageBytes(turns int) int {
	return probeEnvelopeBytes + turns + probePayloadBytes
}

// transitTime is the cut-through latency of a message over the given hop
// count: per-hop switch latency plus one pipelined serialisation.
func (n *Net) transitTime(hops, turns int) time.Duration {
	return time.Duration(hops)*n.timing.SwitchLatency +
		time.Duration(MessageBytes(turns))*n.timing.ByteTime
}

// submit executes one probe of any kind against the quiescent evaluator: it
// classifies the response, bills the per-probe host overhead to the clock,
// and computes the virtual completion time Done — but does NOT wait for the
// response. collect advances the clock to Done; keeping the two separate is
// what lets the pipelined engine overlap many response timeouts, while
// submit-then-collect (Do) is the serial accounting: overhead first, then
// wait. The result is built in *r, the caller's own storage, not returned by
// value through each layer: a ProbeResult is 136 bytes. *r is overwritten
// whole.
func (n *Net) submit(from topology.NodeID, p Probe, r *ProbeResult) {
	if n.injector != nil {
		n.injector.Advance(n.clock)
	}
	if n.topo.KindOf(from) != topology.HostNode {
		panic(fmt.Sprintf("simnet: source %d is not a host", from))
	}
	// Read after Advance, which may have mutated the topology. keyed: the
	// route memo holds a resumable walk for (from, model, epoch, ver) — see
	// evalScratch.
	maxTurn := n.MaxTurn()
	ver := n.topo.Version()
	keyed := n.scratch.keyOK(from, n.model, n.epoch, ver)
	*r = ProbeResult{}
	r.Probe = p
	if !n.supports(p.Kind) {
		// Nothing is sent, no counter moves and no virtual time passes.
		r.Err = ErrUnsupported
		r.Done = n.clock
		return
	}
	var wait time.Duration
	// eval is the decisive evaluator verdict for the fault filter, and
	// evRoute the route that verdict walked (p.Route, or the loopback
	// expansion for switch-class probes). hostClass selects the Fig 6
	// counter pair, billed after the filter so injected faults are counted
	// as the misses they produce.
	var eval Result
	evRoute := p.Route
	hostClass := false
	logKind := ""
	switch p.Kind {
	case ProbeSwitch:
		if !p.Route.ValidProbeFor(maxTurn) {
			panic(fmt.Sprintf("simnet: invalid probe prefix %v", p.Route))
		}
		n.loopBuf = p.Route.AppendLoopback(n.loopBuf[:0])
		eval = evalResume(n.topo, from, n.loopBuf, n.model, &n.scratch, n.epoch, ver, keyed)
		evRoute = n.loopBuf
		r.OK = eval.Outcome == Delivered && eval.Dest == from
		if r.OK {
			wait = n.transitTime(eval.Hops, len(n.loopBuf))
		} else {
			r.Err = ErrTimeout
		}
		logKind = "switch"
	case ProbeHost:
		if !p.Route.ValidProbeFor(maxTurn) {
			panic(fmt.Sprintf("simnet: invalid probe prefix %v", p.Route))
		}
		eval = evalResume(n.topo, from, p.Route, n.model, &n.scratch, n.epoch, ver, keyed)
		delivered := eval.Outcome == Delivered
		r.OK = delivered && n.Responds(eval.Dest)
		hostClass = true
		if r.OK {
			r.Host = n.topo.NameOf(eval.Dest)
			// Round trip: probe out plus reply back over the reversed route.
			wait = 2 * n.transitTime(eval.Hops, len(p.Route))
		} else if delivered {
			r.Err = ErrNoResponder
		} else {
			r.Err = ErrTimeout
		}
		logKind = "host"
	case ProbeRaw:
		if !p.Route.ValidFor(maxTurn) {
			panic(fmt.Sprintf("simnet: invalid route %v", p.Route))
		}
		eval = evalResume(n.topo, from, p.Route, n.model, &n.scratch, n.epoch, ver, keyed)
		r.OK = eval.Outcome == Delivered && eval.Dest == from
		if r.OK {
			wait = n.transitTime(eval.Hops, len(p.Route))
		} else {
			r.Err = ErrTimeout
		}
		logKind = "raw"
	case ProbeID:
		if !p.Route.ValidProbeFor(maxTurn) {
			panic(fmt.Sprintf("simnet: invalid probe prefix %v", p.Route))
		}
		// The outbound prefix tells us which node reflects; the full
		// loopback decides success exactly like a plain switch probe.
		probe := evalResume(n.topo, from, p.Route, n.model, &n.scratch, n.epoch, ver, keyed)
		n.loopBuf = p.Route.AppendLoopback(n.loopBuf[:0])
		eval = evalResume(n.topo, from, n.loopBuf, n.model, &n.scratch, n.epoch, ver, n.scratch.valid)
		evRoute = n.loopBuf
		r.OK = eval.Outcome == Delivered && eval.Dest == from &&
			probe.Outcome == Stranded // the prefix parks on a switch
		if r.OK {
			wait = n.transitTime(eval.Hops, len(n.loopBuf))
			r.SwitchID, r.EntryPort = int(probe.Dest), probe.EntryPort
		} else {
			r.Err = ErrTimeout
		}
	case ProbeTolerant:
		if !p.Route.ValidProbeFor(maxTurn) {
			panic(fmt.Sprintf("simnet: invalid probe prefix %v", p.Route))
		}
		eval = evalResume(n.topo, from, p.Route, n.model, &n.scratch, n.epoch, ver, keyed)
		delivered := false
		switch eval.Outcome {
		case Delivered:
			r.OK = n.Responds(eval.Dest)
			r.Consumed = len(p.Route)
			delivered = true
		case HitHostTooSoon:
			r.OK = n.Responds(eval.Dest)
			r.Consumed = eval.FailTurn
			delivered = true
		}
		hostClass = true
		if r.OK {
			r.Host = n.topo.NameOf(eval.Dest)
			wait = 2 * n.transitTime(eval.Hops, len(p.Route))
		} else if delivered {
			r.Err = ErrNoResponder
		} else {
			r.Err = ErrTimeout
		}
		logKind = "tolerant"
	}
	if n.injector != nil {
		if ierr := n.injector.FilterProbe(p.Kind, evRoute, r.OK, eval, n.scratch.hops); ierr != nil {
			// The probe (or its response) was destroyed: everything the
			// evaluation learned is unobservable, and the miss costs the
			// full response timeout.
			r.OK = false
			r.Host = ""
			r.Consumed = 0
			r.SwitchID, r.EntryPort = 0, 0
			r.Err = ierr
			wait = 0
		}
	}
	if hostClass {
		n.stats.HostProbes++
		if r.OK {
			n.stats.HostHits++
		}
	} else {
		n.stats.SwitchProbes++
		if r.OK {
			n.stats.SwitchHits++
		}
	}
	issue := n.clock
	n.clock += n.timing.HostOverhead
	if r.OK {
		r.Done = n.clock + wait
	} else {
		r.Done = n.clock + n.timing.ResponseTimeout
	}
	r.Latency = r.Done - issue
	if logKind != "" && n.probeLog != nil {
		n.probeLog(logKind, from, p.Route, r.OK)
	}
}

// collect advances the clock to a submitted probe's completion time.
func (n *Net) collect(done time.Duration) {
	if done > n.clock {
		n.clock = done
	}
}

// probes reports the probe kinds this transport executes: every kind, the
// §6 oracle kind only with its hardware switches (EnableSelfID).
func (n *Net) probes() ProbeCaps {
	caps := CapHost | CapSwitch | CapRaw | CapTolerant
	if n.selfID {
		caps |= CapID
	}
	return caps
}

// supports reports whether submit executes probes of kind k.
func (n *Net) supports(k ProbeKind) bool {
	c := CapOf(k)
	return c != 0 && n.probes().Has(c)
}

// Do sends one probe from host from and waits for its response (submit,
// then collect). See the ProbeKind constants for what each kind asks.
func (n *Net) Do(from topology.NodeID, p Probe) (r ProbeResult) {
	n.submit(from, p, &r)
	n.collect(r.Done)
	return r
}

// EnableSelfID turns on the §6 hardware extension for this transport.
func (n *Net) EnableSelfID() { n.selfID = true }

// RespKind is the probe response alphabet H ∪ {"switch", "nothing"}.
type RespKind uint8

const (
	// RespNothing: the probe timed out.
	RespNothing RespKind = iota
	// RespSwitch: the loopback message returned.
	RespSwitch
	// RespHost: a uniquely-named host replied.
	RespHost
)

// String names the kind.
func (k RespKind) String() string {
	switch k {
	case RespNothing:
		return "nothing"
	case RespSwitch:
		return "switch"
	case RespHost:
		return "host"
	}
	return fmt.Sprintf("resp(%d)", uint8(k))
}

// ProbeResponse is the value of the probe-response function R (§2.3).
type ProbeResponse struct {
	Kind RespKind
	Host string // unique host name when Kind == RespHost
}
