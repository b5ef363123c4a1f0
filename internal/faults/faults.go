package faults

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"sanmap/internal/obs"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Sentinel errors classifying injected probe failures. They are always
// wrapped together with the transport-level sentinel the mapper observes
// (simnet.ErrTimeout), so errors.Is answers both "did the probe miss?" and
// "why, per injected ground truth?".
var (
	// ErrLinkDown reports a probe lost to a cut link on its path.
	ErrLinkDown = errors.New("faults: link down")
	// ErrSwitchDead reports a probe lost at a dead switch on its path.
	ErrSwitchDead = errors.New("faults: switch dead")
)

// EventKind enumerates scheduled structural faults.
type EventKind uint8

const (
	// LinkCut removes a wire (by its generation-time index).
	LinkCut EventKind = iota
	// LinkRestore reconnects a previously cut wire between the same ends.
	LinkRestore
	// SwitchDown removes every wire incident to a switch (switch death).
	SwitchDown
	// SwitchUp reconnects the wires a SwitchDown removed (switch restart).
	SwitchUp
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case LinkCut:
		return "link-cut"
	case LinkRestore:
		return "link-restore"
	case SwitchDown:
		return "switch-down"
	case SwitchUp:
		return "switch-up"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one scheduled structural fault, applied when virtual time
// reaches At. Wire indices refer to the topology's indexing at schedule
// construction time (RemoveWire keeps indices stable; a wire recreated by a
// restore gets a fresh index that the injector tracks internally).
type Event struct {
	At   time.Duration
	Kind EventKind
	Wire int             // LinkCut / LinkRestore
	Node topology.NodeID // SwitchDown / SwitchUp
}

// Schedule declares a deterministic fault load: structural events in
// virtual time plus per-probe stochastic fault rates decided by Seed.
type Schedule struct {
	// Events are applied in At order as the transport clock advances.
	Events []Event
	// LossRate is the probability that a probe's response is dropped in
	// flight (the probe looks like "nothing" and costs the full timeout).
	LossRate float64
	// TruncRate is the probability that the probe worm itself is truncated
	// (dropped tail flit / CRC failure) before reaching its destination.
	TruncRate float64
	// CrossRate is the per-hop probability that background cross-traffic
	// holds a link the probe needs, destroying the probe — the paper's
	// non-quiescent regime, where worms can deadlock on each other.
	CrossRate float64
	// CrossQuantum is the refresh period of the cross-traffic busy set
	// (default 1ms): within one quantum a link is consistently busy or
	// free, so a probe repeated inside the quantum meets the same busy set.
	CrossQuantum time.Duration
	// Seed drives every stochastic decision.
	Seed uint64
}

// Record is one FaultLog entry: an applied structural event or a
// probe-level fault, in virtual-time order.
type Record struct {
	At   time.Duration
	What string
	Wire int             // wire index, -1 when not applicable
	Node topology.NodeID // node involved, topology.None when not applicable
	Seq  uint64          // probe sequence number for probe-level faults
}

// String renders one log line.
func (r Record) String() string {
	s := fmt.Sprintf("%v %s", r.At, r.What)
	if r.Wire >= 0 {
		s += fmt.Sprintf(" wire=%d", r.Wire)
	}
	if r.Node != topology.None {
		s += fmt.Sprintf(" node=%d", r.Node)
	}
	if r.Seq > 0 {
		s += fmt.Sprintf(" probe=%d", r.Seq)
	}
	return s
}

// FormatLog renders a fault log one record per line.
func FormatLog(log []Record) string {
	out := ""
	for _, r := range log {
		out += r.String() + "\n"
	}
	return out
}

// Injector applies a Schedule to a quiescent transport. It implements
// simnet.Injector; install it with net.SetInjector (or use Attach).
type Injector struct {
	topo  *topology.Network
	sched Schedule

	events []Event // sorted copy of sched.Events
	next   int     // first unapplied event
	now    time.Duration
	seq    uint64 // probe sequence number (FilterProbe calls)

	// cut records wires removed by LinkCut, keyed by generation-time
	// index; remap translates those indices to current ones after a
	// restore re-created the wire; removed marks every current index this
	// injector has removed (RemoveWire keeps dead indices reserved).
	cut     map[int]topology.Wire
	remap   map[int]int
	removed map[int]bool
	// dead holds, per dead switch, the wires its death removed.
	dead map[topology.NodeID][]topology.Wire
	// downEnds attributes every currently-unwired (node, port) we unplugged
	// to the event kind responsible, for probe-failure classification.
	downEnds map[topology.End]EventKind

	log []Record

	// onRecord, when non-nil, observes every Record as it is logged — the
	// suspicion signal a serving daemon's remap loop listens to. It fires
	// synchronously on the probing goroutine, so hooks must be cheap and
	// must not probe.
	onRecord func(Record)

	// obs mirror (Instrument): tr receives one cat-"faults" instant per
	// record; m classifies records into counters. Both stay nil-safe
	// no-ops on an uninstrumented injector.
	tr *obs.Tracer
	m  injectorMetrics
}

// injectorMetrics is the injector's obs handle set.
type injectorMetrics struct {
	applied *obs.Counter
	noop    *obs.Counter
	loss    *obs.Counter
	trunc   *obs.Counter
	cross   *obs.Counter
}

// NewInjector prepares an injector over the transport's topology. The
// caller still installs it with net.SetInjector; Attach does both.
func NewInjector(net *simnet.Net, sched Schedule) *Injector {
	if sched.CrossQuantum <= 0 {
		sched.CrossQuantum = time.Millisecond
	}
	events := append([]Event(nil), sched.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &Injector{
		topo:     net.Topology(),
		sched:    sched,
		events:   events,
		cut:      make(map[int]topology.Wire),
		remap:    make(map[int]int),
		removed:  make(map[int]bool),
		dead:     make(map[topology.NodeID][]topology.Wire),
		downEnds: make(map[topology.End]EventKind),
	}
}

// Attach builds an injector for the schedule and installs it on the
// transport in one step.
func Attach(net *simnet.Net, sched Schedule) *Injector {
	i := NewInjector(net, sched)
	net.SetInjector(i)
	return i
}

// Instrument mirrors the injector's fault log onto the unified
// observability layer: every Record additionally lands on tr as a
// cat-"faults" instant and is classified into the faults.* counters of
// reg (see internal/obs). Either argument may be nil. Returns the
// injector for chaining: faults.Attach(net, sched).Instrument(tr, reg).
func (i *Injector) Instrument(tr *obs.Tracer, reg *obs.Registry) *Injector {
	i.tr = tr
	i.m = injectorMetrics{
		applied: reg.Counter("faults.events.applied"),
		noop:    reg.Counter("faults.events.noop"),
		loss:    reg.Counter("faults.probe.loss"),
		trunc:   reg.Counter("faults.probe.trunc"),
		cross:   reg.Counter("faults.probe.cross"),
	}
	return i
}

// Log returns the fault records accumulated so far, in virtual-time order.
func (i *Injector) Log() []Record { return i.log }

// SetOnRecord installs the suspicion hook: f observes every fault record
// (applied events, no-ops, probe-level faults) the moment it is logged.
// A nil f uninstalls. The serving daemon (internal/mapd) uses this to
// notice faults landing mid-probe and schedule a heal attempt.
func (i *Injector) SetOnRecord(f func(Record)) { i.onRecord = f }

// Probes reports how many probes the injector has inspected.
func (i *Injector) Probes() uint64 { return i.seq }

// ApplyAll force-applies every remaining scheduled event regardless of the
// clock — used by harnesses that stage "map clean, then fault, then heal"
// experiments without running the clock through the schedule window.
func (i *Injector) ApplyAll() {
	for i.next < len(i.events) {
		i.apply(i.events[i.next])
		i.next++
	}
}

// Advance applies every scheduled event with At <= now (simnet.Injector).
func (i *Injector) Advance(now time.Duration) {
	i.now = now
	for i.next < len(i.events) && i.events[i.next].At <= now {
		i.apply(i.events[i.next])
		i.next++
	}
}

func (i *Injector) record(at time.Duration, what string, wire int, node topology.NodeID, seq uint64) {
	rec := Record{At: at, What: what, Wire: wire, Node: node, Seq: seq}
	i.log = append(i.log, rec)
	if i.onRecord != nil {
		i.onRecord(rec)
	}
	switch {
	case strings.HasSuffix(what, "-noop"):
		i.m.noop.Inc()
	case what == "probe-loss":
		i.m.loss.Inc()
	case what == "probe-trunc":
		i.m.trunc.Inc()
	case what == "cross-collision":
		i.m.cross.Inc()
	default:
		i.m.applied.Inc()
	}
	if i.tr != nil {
		var args [3]obs.Arg
		n := 0
		if wire >= 0 {
			args[n] = obs.Int("wire", wire)
			n++
		}
		if node != topology.None {
			args[n] = obs.Int("node", int(node))
			n++
		}
		if seq > 0 {
			args[n] = obs.Int64("probe", int64(seq))
			n++
		}
		i.tr.Instant("faults", what, at, args[:n]...)
	}
}

// apply performs one structural event. Impossible events (cutting an
// already-dead wire, restarting a live switch) are logged as no-ops rather
// than failing: overlapping fault schedules are legitimate chaos.
func (i *Injector) apply(ev Event) {
	switch ev.Kind {
	case LinkCut:
		cur := ev.Wire
		if r, ok := i.remap[ev.Wire]; ok {
			cur = r
		}
		if _, gone := i.cut[ev.Wire]; gone || i.removed[cur] || cur < 0 {
			i.record(ev.At, "link-cut-noop", ev.Wire, topology.None, 0)
			return
		}
		wire := i.topo.WireByIndex(cur)
		if err := i.topo.RemoveWire(cur); err != nil {
			i.record(ev.At, "link-cut-noop", ev.Wire, topology.None, 0)
			return
		}
		i.removed[cur] = true
		i.cut[ev.Wire] = wire
		i.downEnds[wire.A] = LinkCut
		i.downEnds[wire.B] = LinkCut
		i.record(ev.At, "link-cut", ev.Wire, topology.None, 0)
	case LinkRestore:
		wire, ok := i.cut[ev.Wire]
		if !ok {
			i.record(ev.At, "link-restore-noop", ev.Wire, topology.None, 0)
			return
		}
		ni, err := i.topo.Connect(wire.A.Node, wire.A.Port, wire.B.Node, wire.B.Port)
		if err != nil {
			i.record(ev.At, "link-restore-noop", ev.Wire, topology.None, 0)
			return
		}
		delete(i.cut, ev.Wire)
		i.remap[ev.Wire] = ni
		delete(i.downEnds, wire.A)
		delete(i.downEnds, wire.B)
		i.record(ev.At, "link-restore", ev.Wire, topology.None, 0)
	case SwitchDown:
		if _, gone := i.dead[ev.Node]; gone || i.topo.KindOf(ev.Node) != topology.SwitchNode {
			i.record(ev.At, "switch-down-noop", -1, ev.Node, 0)
			return
		}
		var cutWires []topology.Wire
		for port := 0; port < i.topo.NumPorts(ev.Node); port++ {
			w := i.topo.WireAt(ev.Node, port)
			if w < 0 {
				continue
			}
			wire := i.topo.WireByIndex(w)
			if err := i.topo.RemoveWire(w); err != nil {
				continue
			}
			i.removed[w] = true
			cutWires = append(cutWires, wire)
			i.downEnds[wire.A] = SwitchDown
			i.downEnds[wire.B] = SwitchDown
		}
		i.dead[ev.Node] = cutWires
		i.record(ev.At, "switch-down", -1, ev.Node, 0)
	case SwitchUp:
		cutWires, ok := i.dead[ev.Node]
		if !ok {
			i.record(ev.At, "switch-up-noop", -1, ev.Node, 0)
			return
		}
		for _, wire := range cutWires {
			if _, err := i.topo.Connect(wire.A.Node, wire.A.Port, wire.B.Node, wire.B.Port); err != nil {
				continue
			}
			delete(i.downEnds, wire.A)
			delete(i.downEnds, wire.B)
		}
		delete(i.dead, ev.Node)
		i.record(ev.At, "switch-up", -1, ev.Node, 0)
	}
}

// mix64 is the splitmix64 finalizer — the seeded deterministic hash behind
// every stochastic decision (sanlint's determinism analyzer forbids global
// rand and wall clocks in simulation code).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// salts separating the independent stochastic decision streams.
const (
	saltTrunc = 0x74727563 // "truc"
	saltLoss  = 0x6c6f7373 // "loss"
	saltCross = 0x78747261 // "xtra"
)

// roll returns a uniform [0,1) draw for this probe and decision stream.
func (i *Injector) roll(salt uint64) float64 {
	h := mix64(i.sched.Seed ^ (i.seq * 0x9e3779b97f4a7c15) ^ salt)
	return float64(h>>11) / float64(1<<53)
}

// collision scans the probe's hops against the cross-traffic busy set: a
// link is busy for a whole CrossQuantum when its seeded per-quantum draw
// falls under CrossRate. Returns the busy wire index, or -1.
func (i *Injector) collision(hops []simnet.DirectedHop) int {
	q := uint64(i.now / i.sched.CrossQuantum)
	for _, h := range hops {
		dir := uint64(0)
		if h.FromA {
			dir = 1
		}
		key := mix64(i.sched.Seed ^ saltCross ^ (uint64(int64(h.Wire)) * 0xbf58476d1ce4e5b9) ^ (q << 1) ^ dir)
		if float64(key>>11)/float64(1<<53) < i.sched.CrossRate {
			return h.Wire
		}
	}
	return -1
}

// FilterProbe decides the fate of one classified probe (simnet.Injector).
// Successful probes are subjected to truncation, loss and cross-traffic
// rolls; failed probes are attributed to injected structural faults when
// the failing hop matches a port this injector unplugged.
func (i *Injector) FilterProbe(kind simnet.ProbeKind, route simnet.Route, ok bool, res simnet.Result, hops []simnet.DirectedHop) error {
	i.seq++
	if !ok {
		return i.classify(route, res)
	}
	if i.sched.TruncRate > 0 && i.roll(saltTrunc) < i.sched.TruncRate {
		i.record(i.now, "probe-trunc", -1, topology.None, i.seq)
		return fmt.Errorf("faults: probe %d truncated in flight: %w", i.seq, simnet.ErrTruncated)
	}
	if i.sched.LossRate > 0 && i.roll(saltLoss) < i.sched.LossRate {
		i.record(i.now, "probe-loss", -1, topology.None, i.seq)
		return fmt.Errorf("faults: response to probe %d dropped: %w", i.seq, simnet.ErrTimeout)
	}
	if i.sched.CrossRate > 0 {
		if w := i.collision(hops); w >= 0 {
			i.record(i.now, "cross-collision", w, topology.None, i.seq)
			return fmt.Errorf("faults: probe %d destroyed by cross-traffic on wire %d: %w", i.seq, w, simnet.ErrTimeout)
		}
	}
	return nil
}

// classify attributes an evaluator-reported failure to injected ground
// truth: when the failing hop tried to exit through a port this injector
// unplugged, the returned error wraps both the structural sentinel
// (ErrLinkDown / ErrSwitchDead) and simnet.ErrTimeout. Failures with other
// causes (route simply wrong) return nil and keep their original error.
func (i *Injector) classify(route simnet.Route, res simnet.Result) error {
	var end topology.End
	switch res.Outcome {
	case simnet.SourceUnwired:
		end = topology.End{Node: res.Dest, Port: 0}
	case simnet.NoSuchWire:
		if res.FailTurn < 0 {
			// First hop out of the source host: its single port is 0.
			end = topology.End{Node: res.Dest, Port: 0}
		} else {
			if res.FailTurn >= len(route) {
				return nil
			}
			end = topology.End{Node: res.Dest, Port: res.EntryPort + int(route[res.FailTurn])}
		}
	default:
		return nil
	}
	kind, known := i.downEnds[end]
	if !known {
		return nil
	}
	name := i.topo.NameOf(end.Node)
	if kind == SwitchDown {
		return fmt.Errorf("faults: probe %d lost at dead switch (%s port %d): %w (%w)",
			i.seq, name, end.Port, ErrSwitchDead, simnet.ErrTimeout)
	}
	return fmt.Errorf("faults: probe %d lost on cut link (%s port %d): %w (%w)",
		i.seq, name, end.Port, ErrLinkDown, simnet.ErrTimeout)
}

// SurvivingCore returns the canonical mappable reference graph after
// faults: the core (N − F) of the connected component containing from.
// This is what a degraded mapper can still hope to reconstruct — everything
// faults disconnected from the mapping host is out of reach by definition.
func SurvivingCore(net *topology.Network, from topology.NodeID) *topology.Network {
	label, _ := net.Components()
	keep := label[from]
	sub, _ := net.Filter(func(id topology.NodeID) bool { return label[id] == keep })
	core, _ := sub.Core()
	return core
}
