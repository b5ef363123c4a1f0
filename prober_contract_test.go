package sanmap_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sanmap/internal/connet"
	"sanmap/internal/desim"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Contract tests every simnet.Prober implementation must pass, run over
// every transport: the quiescent endpoint, bare and behind a lossy wrapper,
// and the contended endpoint (inside its simulation process).

// contractFabric is h0 — s0 — s1 — h1: Route{3} parks on s1, Route{3, 3}
// reaches h1, Route{7} leaves s0 through an unwired port.
func contractFabric() (*topology.Network, topology.NodeID) {
	n := &topology.Network{}
	s0 := n.AddSwitch("s0")
	s1 := n.AddSwitch("s1")
	h0 := n.AddHost("h0")
	h1 := n.AddHost("h1")
	n.MustConnect(h0, 0, s0, 2)
	n.MustConnect(s0, 5, s1, 3)
	n.MustConnect(s1, 6, h1, 0)
	return n, h0
}

// proberTransports lists the transports; each run builds a fresh fabric and
// transport and hands the prober bound to h0 to body.
var proberTransports = []struct {
	name string
	run  func(body func(p simnet.Prober))
}{
	{"simnet.Endpoint", func(body func(simnet.Prober)) {
		net, h0 := contractFabric()
		body(simnet.NewDefault(net).Endpoint(h0))
	}},
	{"simnet.Endpoint+SelfID", func(body func(simnet.Prober)) {
		net, h0 := contractFabric()
		sn := simnet.NewDefault(net)
		sn.EnableSelfID()
		body(sn.Endpoint(h0))
	}},
	{"simnet.FlakyProber", func(body func(simnet.Prober)) {
		net, h0 := contractFabric()
		body(&simnet.FlakyProber{Prober: simnet.NewDefault(net).Endpoint(h0),
			DropRate: 0.3, Rng: rand.New(rand.NewSource(17))})
	}},
	{"connet.Endpoint", func(body func(simnet.Prober)) {
		net, h0 := contractFabric()
		eng := desim.New()
		cn := connet.New(net, simnet.CircuitModel, simnet.DefaultTiming())
		eng.Spawn("prober", func(p *desim.Proc) { body(cn.Endpoint(h0, p)) })
		eng.Run()
	}},
}

// TestProberCapabilityHonesty: a transport executes exactly the probe kinds
// its Probes() reports; any other kind comes back ErrUnsupported having sent
// nothing and cost no virtual time.
func TestProberCapabilityHonesty(t *testing.T) {
	kinds := []simnet.ProbeKind{simnet.ProbeHost, simnet.ProbeSwitch, simnet.ProbeRaw, simnet.ProbeID, simnet.ProbeTolerant}
	for _, tr := range proberTransports {
		tr.run(func(p simnet.Prober) {
			sent := func() int64 {
				return p.(interface{ Stats() simnet.Stats }).Stats().TotalProbes()
			}
			for _, k := range kinds {
				clock, msgs := p.Clock(), sent()
				r := simnet.Do(p, simnet.Probe{Kind: k, Route: simnet.Route{3}})
				supported := p.Probes().Has(simnet.CapOf(k))
				if refused := errors.Is(r.Err, simnet.ErrUnsupported); refused == supported {
					t.Errorf("%s: %v probe: Probes() says supported=%v, Submit returned %v", tr.name, k, supported, r.Err)
				}
				if supported {
					if sent() != msgs+1 || p.Clock() == clock {
						t.Errorf("%s: %v probe sent %d messages in %v", tr.name, k, sent()-msgs, p.Clock()-clock)
					}
				} else if sent() != msgs || p.Clock() != clock {
					t.Errorf("%s: unsupported %v probe sent %d messages and took %v", tr.name, k, sent()-msgs, p.Clock()-clock)
				}
			}
		})
	}
}

// TestWindowDoIsASubmitLoop: on every transport, ProbeWindow.Do returns — in
// submission order — what a hand-written Stream fill/collect loop returns,
// at the same clock and with the same window and transport counters; at a
// window of 1 that is simnet.Do per probe. The loop's side sees the
// transport through the Prober interface alone, so whatever else a transport
// offers, Do can only be reaching it through Submit.
func TestWindowDoIsASubmitLoop(t *testing.T) {
	alphabet := []simnet.Probe{
		{Kind: simnet.ProbeHost, Route: simnet.Route{3, 3}},
		{Kind: simnet.ProbeSwitch, Route: simnet.Route{3}},
		{Kind: simnet.ProbeHost, Route: simnet.Route{7}},
		{Kind: simnet.ProbeRaw, Route: simnet.Route{3, 0, -3}},
		{Kind: simnet.ProbeHost, Route: simnet.Route{3}},
		{Kind: simnet.ProbeTolerant, Route: simnet.Route{3, 3, 1}},
		{Kind: simnet.ProbeSwitch, Route: simnet.Route{-1}},
		{Kind: simnet.ProbeID, Route: simnet.Route{3}},
	}
	batch := make([]simnet.Probe, 0, 3*len(alphabet)-1)
	for len(batch) < cap(batch) {
		batch = append(batch, alphabet[(5*len(batch))%len(alphabet)])
	}
	type observed struct {
		Results   []simnet.ProbeResult
		Clock     time.Duration
		Window    simnet.WindowStats
		Transport simnet.Stats
	}
	for _, tr := range proberTransports {
		observe := func(drive func(p simnet.Prober) ([]simnet.ProbeResult, simnet.WindowStats)) (o observed) {
			tr.run(func(p simnet.Prober) {
				o.Results, o.Window = drive(p)
				o.Clock = p.Clock()
				o.Transport = p.(interface{ Stats() simnet.Stats }).Stats()
			})
			return o
		}
		for _, cfg := range []simnet.WindowConfig{
			{Window: 1},
			{Window: 3},
			{Window: 8},
			{Window: 4},
		} {
			do := observe(func(p simnet.Prober) ([]simnet.ProbeResult, simnet.WindowStats) {
				w := simnet.NewProbeWindow(p, cfg)
				return w.Do(batch), w.Stats()
			})
			loop := observe(func(p simnet.Prober) ([]simnet.ProbeResult, simnet.WindowStats) {
				w := simnet.NewProbeWindow(struct{ simnet.Prober }{p}, cfg)
				st, out := w.Stream(), make([]simnet.ProbeResult, len(batch))
				for i := 0; i < len(batch) || st.Len() > 0; {
					if i < len(batch) && st.Free() > 0 {
						st.Submit(batch[i], i)
						i++
						continue
					}
					tag, r := st.Collect()
					out[tag] = *r
				}
				return out, w.Stats()
			})
			if !reflect.DeepEqual(do, loop) {
				t.Errorf("%s %+v: Do observed\n%+v\na Submit loop\n%+v", tr.name, cfg, do, loop)
			}
			for i, r := range do.Results {
				if !reflect.DeepEqual(r.Probe.Route, batch[i].Route) || r.Probe.Kind != batch[i].Kind {
					t.Errorf("%s %+v: result %d answers %v, submitted %v", tr.name, cfg, i, r.Probe, batch[i])
				}
			}
			if cfg.Window != 1 {
				continue
			}
			serial := observe(func(p simnet.Prober) ([]simnet.ProbeResult, simnet.WindowStats) {
				out := make([]simnet.ProbeResult, len(batch))
				for i, probe := range batch {
					out[i] = simnet.Do(p, probe)
				}
				return out, do.Window // a serial caller keeps no window counters
			})
			if !reflect.DeepEqual(do, serial) {
				t.Errorf("%s: Do at window 1 observed\n%+v\nsimnet.Do per probe\n%+v", tr.name, do, serial)
			}
		}
	}
}
