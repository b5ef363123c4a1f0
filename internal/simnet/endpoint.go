package simnet

import (
	"math/rand"
	"time"

	"sanmap/internal/topology"
)

// Endpoint binds a Net to a source host, implementing Prober.
type Endpoint struct {
	net  *Net
	host topology.NodeID
}

// Endpoint returns a Prober sending from host h.
func (n *Net) Endpoint(h topology.NodeID) *Endpoint {
	if n.topo.KindOf(h) != topology.HostNode {
		panic("simnet: endpoint must be a host")
	}
	return &Endpoint{net: n, host: h}
}

// LocalHost implements Prober.
func (e *Endpoint) LocalHost() string { return e.net.topo.NameOf(e.host) }

// MaxPorts reports the fabric's largest port count, so mappers can
// discover the switch radix to plan for.
func (e *Endpoint) MaxPorts() int { return e.net.MaxPorts() }

// Clock implements Prober.
func (e *Endpoint) Clock() time.Duration { return e.net.Clock() }

// Stats exposes the transport's probe counters (picked up by the mappers'
// run statistics).
func (e *Endpoint) Stats() Stats { return e.net.Stats() }

// Submit implements Prober: the probe is evaluated and its messages
// accounted immediately (paying only the per-probe host overhead), while
// the response completes at the returned result's Done time.
func (e *Endpoint) Submit(p Probe) (r ProbeResult) {
	e.net.submit(e.host, p, &r)
	return r
}

// Collect implements Prober: advance the clock to the result's completion
// time.
func (e *Endpoint) Collect(r ProbeResult) { e.net.collect(r.Done) }

// Probes implements Prober.
func (e *Endpoint) Probes() ProbeCaps { return e.net.probes() }

// Host returns the bound host id.
func (e *Endpoint) Host() topology.NodeID { return e.host }

// Net returns the underlying transport.
func (e *Endpoint) Net() *Net { return e.net }

// FlakyProber wraps a Prober and drops each response with probability
// DropRate — message corruption and loss, the error class the paper's model
// explicitly leaves out ("Other errors such as message corruption are not
// addressed in the model") but that a deployed mapper must tolerate. A
// dropped response completes when the real one would have.
type FlakyProber struct {
	Prober
	DropRate float64
	Rng      *rand.Rand
	Dropped  int64
}

// Submit implements Prober with random response loss.
func (f *FlakyProber) Submit(p Probe) ProbeResult {
	r := f.Prober.Submit(p)
	if r.OK && f.Rng.Float64() < f.DropRate {
		f.Dropped++
		return ProbeResult{Probe: p, Err: ErrTimeout, Done: r.Done, Latency: r.Latency}
	}
	return r
}

// MaxPorts forwards the fabric's largest port count when the inner
// transport exposes it (0 otherwise: callers fall back to the default).
func (f *FlakyProber) MaxPorts() int {
	if mp, ok := f.Prober.(interface{ MaxPorts() int }); ok {
		return mp.MaxPorts()
	}
	return 0
}

// Stats forwards the inner transport's counters when available.
func (f *FlakyProber) Stats() Stats {
	if s, ok := f.Prober.(interface{ Stats() Stats }); ok {
		return s.Stats()
	}
	return Stats{}
}
