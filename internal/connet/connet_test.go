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
		// A sender is a callback that re-arms itself for the moment its
		// interface frees up: 50 worms back to back.
		sender := func(h topology.NodeID, route simnet.Route) {
			left := 50
			var fire func()
			fire = func() {
				free, _ := cn.Inject(eng.Now(), h, route, 4096)
				if left--; left > 0 {
					eng.At(free, fire)
				}
			}
			eng.At(0, fire)
		}
		sender(h0, simnet.Route{3, 3}) // s0@2 -> s1 -> h1
		if both {
			sender(h2, simnet.Route{4, 3}) // s0@1 -> s1 -> h1
		}
		eng.Run()
		if want := int64(50); !both && cn.Worms != want || both && cn.Worms != 2*want {
			t.Fatalf("injected %d worms", cn.Worms)
		}
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

// TestInjectSourceModel: a delivered worm keeps its host's interface for
// its own serialisation time and leaves that reservation on the host link;
// a route that does not deliver never enters the links and costs no time.
func TestInjectSourceModel(t *testing.T) {
	net, h0, _ := lineNet()
	timing := simnet.DefaultTiming()
	cn := New(net, simnet.CircuitModel, timing)
	const at = 7 * time.Microsecond
	route := simnet.Route{3, 3}
	free, ok := cn.Inject(at, h0, route, 512)
	want := at + time.Duration(simnet.MessageBytes(len(route))+512)*timing.ByteTime
	if !ok || free != want {
		t.Fatalf("Inject = %v, %v; want %v, true", free, ok, want)
	}
	_, hops := cn.Quiet().EvalPath(h0, route)
	if got := cn.BusyUntil(hops[0]); got != want {
		t.Errorf("host link reserved until %v, want %v", got, want)
	}
	if free, ok := cn.Inject(at, h0, simnet.Route{1}, 512); ok || free != at || cn.Worms != 1 {
		t.Errorf("dead-end route: Inject = %v, %v, Worms %d; want %v, false, 1", free, ok, cn.Worms, at)
	}
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
