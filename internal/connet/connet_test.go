package connet

import (
	"testing"
	"time"

	"sanmap/internal/desim"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

func lineNet() (*topology.Network, topology.NodeID, topology.NodeID) {
	n := &topology.Network{}
	s0 := n.AddSwitch("s0")
	s1 := n.AddSwitch("s1")
	h0 := n.AddHost("h0")
	h1 := n.AddHost("h1")
	n.MustConnect(h0, 0, s0, 2)
	n.MustConnect(s0, 5, s1, 3)
	n.MustConnect(s1, 6, h1, 0)
	return n, h0, h1
}

// TestProbesMatchQuiescentSemantics: with a single prober and no traffic,
// the contended transport must answer exactly like the quiescent one.
func TestProbesMatchQuiescentSemantics(t *testing.T) {
	net, h0, _ := lineNet()
	eng := desim.New()
	cn := New(net, simnet.CircuitModel, simnet.DefaultTiming())
	var gotHost string
	var okHost, okSwitch, badProbe bool
	eng.Spawn("m", func(p *desim.Proc) {
		ep := cn.Endpoint(h0, p)
		r := simnet.Do(ep, simnet.Probe{Kind: simnet.ProbeHost, Route: simnet.Route{3, 3}})
		gotHost, okHost = r.Host, r.OK
		okSwitch = simnet.Do(ep, simnet.Probe{Kind: simnet.ProbeSwitch, Route: simnet.Route{3}}).OK
		badProbe = simnet.Do(ep, simnet.Probe{Kind: simnet.ProbeHost, Route: simnet.Route{1}}).OK
	})
	eng.Run()
	if !okHost || gotHost != "h1" {
		t.Errorf("host probe: %q %v", gotHost, okHost)
	}
	if !okSwitch {
		t.Error("switch probe failed")
	}
	if badProbe {
		t.Error("dead-end probe answered")
	}
}

// TestProbeAdvancesVirtualTime: timeouts cost more than hits, as in the
// quiescent transport.
func TestProbeAdvancesVirtualTime(t *testing.T) {
	net, h0, _ := lineNet()
	timing := simnet.DefaultTiming()
	measure := func(route simnet.Route) time.Duration {
		eng := desim.New()
		cn := New(net, simnet.CircuitModel, timing)
		var took time.Duration
		eng.Spawn("m", func(p *desim.Proc) {
			ep := cn.Endpoint(h0, p)
			simnet.Do(ep, simnet.Probe{Kind: simnet.ProbeHost, Route: route})
			took = p.Now()
		})
		eng.Run()
		return took
	}
	hit := measure(simnet.Route{3, 3})
	miss := measure(simnet.Route{1})
	if hit >= miss {
		t.Errorf("hit %v should cost less than miss %v", hit, miss)
	}
	if miss != timing.HostOverhead+timing.ResponseTimeout {
		t.Errorf("miss cost %v", miss)
	}
}

// TestContentionDelays: two senders pushing worms over the same directed
// link serialise on it; the pair takes longer than one sender alone.
// (Opposite directions of a link are independent, as in a real crossbar.)
func TestContentionDelays(t *testing.T) {
	net, h0, h1 := lineNet()
	// Second host on s0 whose worms share the s0->s1 directed link with h0.
	h2 := net.AddHost("h2")
	net.MustConnect(h2, 0, net.Lookup("s0"), 1)

	run := func(both bool) *Net {
		eng := desim.New()
		cn := New(net, simnet.CircuitModel, simnet.DefaultTiming())
		worker := func(h topology.NodeID, route simnet.Route) func(*desim.Proc) {
			return func(p *desim.Proc) {
				ep := cn.Endpoint(h, p)
				for i := 0; i < 50; i++ {
					ep.SendWorm(route, 4096)
				}
			}
		}
		eng.Spawn("a", worker(h0, simnet.Route{3, 3})) // s0@2 -> s1 -> h1
		if both {
			eng.Spawn("b", worker(h2, simnet.Route{4, 3})) // s0@1 -> s1 -> h1
		}
		eng.Run()
		return cn
	}
	if solo := run(false); solo.Delayed != 0 {
		t.Errorf("solo back-to-back worms should never queue, Delayed=%d", solo.Delayed)
	}
	duo := run(true)
	if duo.Delayed == 0 && duo.Blocked == 0 {
		t.Errorf("contending senders never queued: %+v", *duo)
	}
	_ = h1
}

// TestMappingOverContendedTransport: a full Berkeley run over connet (no
// traffic) reproduces the quiescent result.
func TestMappingOverContendedTransport(t *testing.T) {
	net, h0, _ := lineNet()
	eng := desim.New()
	cn := New(net, simnet.CircuitModel, simnet.DefaultTiming())
	var m *mapper.Map
	var err error
	eng.Spawn("mapper", func(p *desim.Proc) {
		m, err = mapper.Run(cn.Endpoint(h0, p), mapper.WithDepth(net.DepthBound(h0)))
	})
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if e := isomorph.MustEqualCore(m.Network, net); e != nil {
		t.Fatal(e)
	}
	if cn.Worms == 0 {
		t.Error("no worms accounted")
	}
}
