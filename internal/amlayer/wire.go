package amlayer

import (
	"time"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// WireNet runs the mapping system's probes through the real message layer:
// every host probe is encoded into the Myrinet frame format, carried by the
// simulator, decoded and answered by the destination host's Daemon, and the
// reply is routed back over the inverted route and decoded by the mapper.
// Switch probes loop back as framed TLoopback messages. Its WireProber
// implements the same simnet.Prober contract as the built-in transport, so
// the mappers run over it unchanged — which is how the tests show the whole
// system works end-to-end over the wire format, including CRC rejection of
// corrupted frames.
type WireNet struct {
	sn      *simnet.Net
	daemons map[topology.NodeID]*Daemon
	// Corrupt, when non-nil, may mutate (a copy of) each outbound frame —
	// fault injection for link bit errors. Returning the frame unchanged
	// passes it through.
	Corrupt func(frame []byte) []byte
	// Rejected counts frames the receiving side dropped (CRC/framing).
	Rejected int64
	seq      uint32
}

// NewWireNet builds the wire transport over a quiescent simulator, with one
// responder daemon per host.
func NewWireNet(sn *simnet.Net) *WireNet {
	w := &WireNet{sn: sn, daemons: make(map[topology.NodeID]*Daemon)}
	for _, h := range sn.Topology().Hosts() {
		w.daemons[h] = NewDaemon(sn.Topology().NameOf(h))
	}
	return w
}

// Daemon returns host h's responder (for assertions and route installs).
func (w *WireNet) Daemon(h topology.NodeID) *Daemon { return w.daemons[h] }

// Prober binds the wire transport to a source host.
func (w *WireNet) Prober(h topology.NodeID) *WireProber {
	return &WireProber{net: w, host: h}
}

// WireProber implements simnet.Prober over WireNet for the two §2.3 probe
// kinds the frame format carries. A probe's frames make their whole round
// trip through the daemons inside Submit, so the result is complete — and
// the clock already at its Done time — when Submit returns.
type WireProber struct {
	net  *WireNet
	host topology.NodeID
}

// Probes implements simnet.Prober: host and switch probes only.
func (p *WireProber) Probes() simnet.ProbeCaps { return simnet.CapHost | simnet.CapSwitch }

// Submit implements simnet.Prober.
func (p *WireProber) Submit(pr simnet.Probe) simnet.ProbeResult {
	r := simnet.ProbeResult{Probe: pr}
	issue := p.Clock()
	switch pr.Kind {
	case simnet.ProbeHost:
		r.Host, r.OK = p.hostProbe(pr.Route)
	case simnet.ProbeSwitch:
		r.OK = p.switchProbe(pr.Route)
	default:
		r.Err = simnet.ErrUnsupported
	}
	if !r.OK && r.Err == nil {
		r.Err = simnet.ErrTimeout
	}
	r.Done = p.Clock()
	r.Latency = r.Done - issue
	return r
}

// Collect implements simnet.Prober. Submit already waited the response out,
// so there is nothing left to wait for.
func (p *WireProber) Collect(simnet.ProbeResult) {}

// Sleep implements simnet.Prober: advance the virtual clock without probing.
func (p *WireProber) Sleep(d time.Duration) { p.net.sn.AdvanceClock(d) }

// LocalHost implements simnet.Prober.
func (p *WireProber) LocalHost() string { return p.net.sn.Topology().NameOf(p.host) }

// Clock implements simnet.Prober.
func (p *WireProber) Clock() time.Duration { return p.net.sn.Clock() }

// MaxPorts reports the fabric's largest port count, so mappers can
// discover the switch radix to plan for.
func (p *WireProber) MaxPorts() int { return p.net.sn.Topology().MaxPorts() }

// Stats exposes the underlying transport counters.
func (p *WireProber) Stats() simnet.Stats { return p.net.sn.Stats() }

// transmit frames msg, optionally corrupts it, and carries it over the
// simulated network. It returns the destination's decoded view (nil when
// the physical route failed or the frame was rejected).
func (w *WireNet) transmit(src topology.NodeID, msg Message) (dst topology.NodeID, frame []byte, ok bool) {
	raw, err := Encode(msg)
	if err != nil {
		return topology.None, nil, false
	}
	if w.Corrupt != nil {
		raw = w.Corrupt(append([]byte(nil), raw...))
	}
	res := w.sn.Eval(src, msg.Route)
	if res.Outcome != simnet.Delivered {
		return topology.None, nil, false
	}
	return res.Dest, raw, true
}

// hostProbe runs one host probe: frame → network → daemon → framed reply →
// network → decode.
func (p *WireProber) hostProbe(turns simnet.Route) (string, bool) {
	w := p.net
	timing := w.sn.Timing()
	w.seq++
	msg := NewHostProbe(turns, p.LocalHost(), w.seq)
	rtt := 2 * timing.TransitTime(len(turns)+1, simnet.MessageBytes(len(turns)))

	fail := func() (string, bool) {
		w.sn.AccountProbe(true, 0, false)
		return "", false
	}
	dst, frame, ok := w.transmit(p.host, msg)
	if !ok {
		return fail()
	}
	daemon := w.daemons[dst]
	if daemon == nil || !w.sn.Responds(dst) {
		return fail()
	}
	replyFrame, err := daemon.Handle(frame)
	if err != nil {
		w.Rejected++
		return fail()
	}
	if replyFrame == nil {
		return fail()
	}
	reply, err := Decode(replyFrame)
	if err != nil || reply.Type != TProbeReply {
		w.Rejected++
		return fail()
	}
	// The reply rides the inverted route back; it must reach the prober.
	back := w.sn.Eval(dst, reply.Route)
	if back.Outcome != simnet.Delivered || back.Dest != p.host {
		return fail()
	}
	w.sn.AccountProbe(true, rtt, true)
	return string(reply.Payload), true
}

// switchProbe runs one switch probe: the loopback frame must physically
// return to the sender and still decode.
func (p *WireProber) switchProbe(turns simnet.Route) bool {
	w := p.net
	timing := w.sn.Timing()
	w.seq++
	route := turns.Loopback()
	msg := Message{Type: TLoopback, Route: route}
	dst, frame, ok := w.transmit(p.host, msg)
	hit := ok && dst == p.host
	if hit {
		if _, err := Decode(frame); err != nil {
			w.Rejected++
			hit = false
		}
	}
	rtt := timing.TransitTime(2*(len(turns)+1), simnet.MessageBytes(len(route)))
	if hit {
		w.sn.AccountProbe(false, rtt, true)
	} else {
		w.sn.AccountProbe(false, 0, false)
	}
	return hit
}
