package simnet

import (
	"errors"
	"fmt"
	"time"
)

// This file defines the probe request/response API. The paper's mapper has
// one primitive — send a routed message and observe "host h", "switch" or
// "nothing" (§2.3) — so a probe is a value with a Kind, a transport reports
// which kinds it supports through Probes(), and one interface, Prober,
// sends them.

// Sentinel errors for probe outcomes. Transports wrap or return these so
// callers can classify failures with errors.Is.
var (
	// ErrTimeout reports that a probe produced no response within the
	// response timeout (the paper's "nothing" outcome).
	ErrTimeout = errors.New("simnet: probe timed out")
	// ErrNoResponder reports that a probe physically reached a host that
	// runs no responder daemon — it still costs the full timeout, but the
	// failure class matters to robustness analyses (Fig 9).
	ErrNoResponder = errors.New("simnet: probe reached a silent host")
	// ErrUnsupported reports a probe kind the transport cannot execute
	// (see Prober.Probes).
	ErrUnsupported = errors.New("simnet: probe kind not supported by transport")
	// ErrTruncated reports a probe worm cut short in flight — a dropped
	// tail flit or CRC failure destroyed the message before it reached its
	// destination. Observable only under fault injection; the mapper sees
	// it as "nothing" but robustness analyses classify it separately.
	ErrTruncated = errors.New("simnet: probe worm truncated in flight")
)

// ProbeKind enumerates the probe types of the unified API.
type ProbeKind uint8

const (
	// ProbeHost is the §2.3 host probe: send a1...ak and report the name of
	// the responding host, if any. A response requires the message to be
	// delivered AND the destination host to run a responder daemon; the
	// reply retraces the probe's route in reverse (it carries its route, so
	// the receiver can invert it).
	ProbeHost ProbeKind = iota
	// ProbeSwitch is the §2.3 switch probe: the loopback message with turns
	// a1...ak 0 −ak...−a1. The mapper receiving its own loopback proves the
	// node k hops beyond the first switch is a switch.
	ProbeSwitch
	// ProbeRaw sends a message with an arbitrary routing address and
	// succeeds when it is delivered back to the sending host itself — the
	// primitive behind the Myricom algorithm's generalised loopback probes
	// (§4.1): comparison probes T1..Tn X −Sm..−S1 and loop-cable probes. It
	// is counted as a switch-class probe.
	ProbeRaw
	// ProbeID is the §6 "architectural support for self-identifying
	// switches" oracle: "if a probe made it to a switch and back, it would
	// carry a unique identifier". It behaves like ProbeSwitch but, on
	// success, also reports a unique identifier for the reflecting switch
	// and the absolute port the probe entered it on (what a
	// self-identifying switch would stamp into the returning message). Only
	// supported after Net.EnableSelfID; the default Myrinet-faithful
	// configuration has no such mechanism ("Myrinet lacks a mechanism to
	// query a switch directly").
	ProbeID
	// ProbeTolerant models the §6 firmware change the randomized hybrid
	// mapper assumes: "instead of a 'hit host too soon' error causing a
	// message to be discarded, the host could read it and send a response".
	// The probe succeeds both when it is delivered exactly and when it
	// reaches a responding host with flits left over; Consumed reports how
	// many turns the network actually applied, i.e. Route[:Consumed] is a
	// valid host-probe route to the responder.
	ProbeTolerant
)

// String names the kind.
func (k ProbeKind) String() string {
	switch k {
	case ProbeHost:
		return "host"
	case ProbeSwitch:
		return "switch"
	case ProbeRaw:
		return "raw"
	case ProbeID:
		return "id"
	case ProbeTolerant:
		return "tolerant"
	}
	return fmt.Sprintf("probe(%d)", uint8(k))
}

// Probe is one probe request. For ProbeHost, ProbeSwitch, ProbeID and
// ProbeTolerant the Route is the turn prefix a1..ak; for ProbeRaw it is the
// complete routing address.
type Probe struct {
	Kind  ProbeKind
	Route Route
}

// ProbeResult is the response to one Probe.
type ProbeResult struct {
	// Probe echoes the request.
	Probe Probe
	// OK reports a response (host name, returned loopback, or id stamp).
	OK bool
	// Host is the responding host's unique name (ProbeHost/ProbeTolerant).
	Host string
	// Consumed is the number of turns the network applied before the
	// responder was reached (ProbeTolerant).
	Consumed int
	// SwitchID and EntryPort carry the §6 self-identification stamp
	// (ProbeID).
	SwitchID  int
	EntryPort int
	// Err classifies a failure (ErrTimeout, ErrNoResponder,
	// ErrUnsupported); nil when OK.
	Err error
	// Done is the virtual time at which the response (or timeout) completes.
	Done time.Duration
	// Latency is Done minus the submission time.
	Latency time.Duration
}

// ProbeCaps is the capability set a transport reports via Probes().
type ProbeCaps uint16

const (
	// CapHost: the transport executes ProbeHost.
	CapHost ProbeCaps = 1 << iota
	// CapSwitch: the transport executes ProbeSwitch.
	CapSwitch
	// CapRaw: the transport executes ProbeRaw.
	CapRaw
	// CapID: the transport executes ProbeID (§6 hardware extension).
	CapID
	// CapTolerant: the transport executes ProbeTolerant (§6 firmware
	// extension).
	CapTolerant
)

// Has reports whether every capability in want is present.
func (c ProbeCaps) Has(want ProbeCaps) bool { return c&want == want }

// CapOf maps a probe kind to its capability bit.
func CapOf(k ProbeKind) ProbeCaps {
	switch k {
	case ProbeHost:
		return CapHost
	case ProbeSwitch:
		return CapSwitch
	case ProbeRaw:
		return CapRaw
	case ProbeID:
		return CapID
	case ProbeTolerant:
		return CapTolerant
	}
	return 0
}

// Prober is the one view a mapping algorithm has of the network: the ability
// to send probes from one fixed host and observe responses and elapsed
// virtual time. Every mapper (Berkeley, Myricom, label, oracle, randomized,
// election) runs against it, so the same algorithm code runs over the
// quiescent transport, the discrete-event contended transport and
// fault-injecting wrappers.
//
// Submit issues a probe — paying only the per-probe host overhead — and
// returns its completed result; the caller's virtual clock does not wait for
// the response. Collect synchronises the clock with a result's completion
// time. Keeping the two apart is what lets the ProbeWindow overlap many
// response timeouts (§6's parallel-probing direction: sequential round
// trips, not wire time, dominate mapping cost); collecting results in
// submission order keeps every run deterministic. Serial callers use Do.
type Prober interface {
	// Submit issues a probe and returns its result. A kind outside Probes()
	// yields ErrUnsupported, sends nothing and costs no virtual time. A
	// miss waits out the transport's one response timeout.
	Submit(p Probe) ProbeResult
	// Collect advances the caller's virtual clock to the result's Done time
	// (no-op if the clock is already past it).
	Collect(r ProbeResult)
	// Probes reports which probe kinds the transport supports.
	Probes() ProbeCaps
	// LocalHost is the unique name of the probing host.
	LocalHost() string
	// Clock is the prober's elapsed virtual time.
	Clock() time.Duration
}

// Do sends one probe and waits for its response: Submit, then Collect — the
// serial probing pattern of the paper's mappers.
func Do(p Prober, probe Probe) (r ProbeResult) {
	r = p.Submit(probe)
	p.Collect(r)
	return r
}
