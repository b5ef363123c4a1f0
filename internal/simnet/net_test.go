package simnet

import (
	"math/rand"
	"testing"
	"time"

	"sanmap/internal/topology"
)

func probeNet(t *testing.T) (*Net, topology.NodeID, topology.NodeID) {
	t.Helper()
	n := &topology.Network{}
	s0 := n.AddSwitch("s0")
	s1 := n.AddSwitch("s1")
	h0 := n.AddHost("h0")
	h1 := n.AddHost("h1")
	n.MustConnect(h0, 0, s0, 2)
	n.MustConnect(s0, 5, s1, 3)
	n.MustConnect(s1, 6, h1, 0)
	return NewDefault(n), h0, h1
}

func TestHostProbeAndCounters(t *testing.T) {
	sn, h0, _ := probeNet(t)
	r := sn.Do(h0, Probe{Kind: ProbeHost, Route: Route{3, 3}})
	if !r.OK || r.Host != "h1" {
		t.Fatalf("host probe = %q %v", r.Host, r.OK)
	}
	if sn.Do(h0, Probe{Kind: ProbeHost, Route: Route{1}}).OK {
		t.Fatal("probe into empty port answered")
	}
	st := sn.Stats()
	if st.HostProbes != 2 || st.HostHits != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestSwitchProbe(t *testing.T) {
	sn, h0, _ := probeNet(t)
	if !sn.Do(h0, Probe{Kind: ProbeSwitch, Route: Route{3}}).OK {
		t.Error("switch-probe to s1 failed")
	}
	if sn.Do(h0, Probe{Kind: ProbeSwitch, Route: Route{3, 3}}).OK {
		t.Error("switch-probe onto a host succeeded")
	}
	st := sn.Stats()
	if st.SwitchProbes != 2 || st.SwitchHits != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestProbePair: the paper's §2.3 "probe" is the pair of the two tests on
// the same prefix, giving the combined response R(a1...ak): a host name,
// "switch", or "nothing".
func TestProbePair(t *testing.T) {
	sn, h0, _ := probeNet(t)
	pair := func(turns Route) ProbeResponse {
		if r := sn.Do(h0, Probe{Kind: ProbeHost, Route: turns}); r.OK {
			return ProbeResponse{Kind: RespHost, Host: r.Host}
		}
		if sn.Do(h0, Probe{Kind: ProbeSwitch, Route: turns}).OK {
			return ProbeResponse{Kind: RespSwitch}
		}
		return ProbeResponse{Kind: RespNothing}
	}
	if r := pair(Route{3, 3}); r.Kind != RespHost || r.Host != "h1" {
		t.Errorf("pair host: %+v", r)
	}
	if r := pair(Route{3}); r.Kind != RespSwitch {
		t.Errorf("pair switch: %+v", r)
	}
	if r := pair(Route{1}); r.Kind != RespNothing {
		t.Errorf("pair nothing: %+v", r)
	}
}

func TestClockAccounting(t *testing.T) {
	sn, h0, _ := probeNet(t)
	tm := sn.Timing()
	sn.Do(h0, Probe{Kind: ProbeHost, Route: Route{3, 3}}) // hit: overhead + 2*transit
	hit := sn.Clock()
	if hit <= tm.HostOverhead || hit >= tm.HostOverhead+tm.ResponseTimeout {
		t.Errorf("hit cost %v implausible", hit)
	}
	sn.ResetClock()
	sn.Do(h0, Probe{Kind: ProbeHost, Route: Route{1}}) // miss: overhead + timeout
	miss := sn.Clock()
	if miss != tm.HostOverhead+tm.ResponseTimeout {
		t.Errorf("miss cost %v, want %v", miss, tm.HostOverhead+tm.ResponseTimeout)
	}
	if miss <= hit {
		t.Error("a timeout must cost more than a round trip")
	}
	sn.AdvanceClock(time.Millisecond)
	if sn.Clock() != miss+time.Millisecond {
		t.Error("AdvanceClock broken")
	}
}

func TestSilentHostsDoNotAnswer(t *testing.T) {
	sn, h0, h1 := probeNet(t)
	sn.SetResponder(h1, false)
	if sn.Do(h0, Probe{Kind: ProbeHost, Route: Route{3, 3}}).OK {
		t.Error("silent host answered")
	}
	sn.SetResponder(h1, true)
	if !sn.Do(h0, Probe{Kind: ProbeHost, Route: Route{3, 3}}).OK {
		t.Error("re-enabled host did not answer")
	}
}

func TestTolerantHostProbe(t *testing.T) {
	sn, h0, _ := probeNet(t)
	// Overshooting route: reaches h1 after 2 turns with 3 left over.
	r := sn.Do(h0, Probe{Kind: ProbeTolerant, Route: Route{3, 3, 1, 1, 1}})
	if !r.OK || r.Host != "h1" || r.Consumed != 2 {
		t.Fatalf("tolerant = %q %d %v", r.Host, r.Consumed, r.OK)
	}
	// Exact delivery also works and consumes everything.
	r = sn.Do(h0, Probe{Kind: ProbeTolerant, Route: Route{3, 3}})
	if !r.OK || r.Host != "h1" || r.Consumed != 2 {
		t.Fatalf("tolerant exact = %q %d %v", r.Host, r.Consumed, r.OK)
	}
	// Dead-end routes still fail.
	if sn.Do(h0, Probe{Kind: ProbeTolerant, Route: Route{1}}).OK {
		t.Error("tolerant probe into empty port answered")
	}
}

func TestRawLoopback(t *testing.T) {
	sn, h0, _ := probeNet(t)
	if !sn.Do(h0, Probe{Kind: ProbeRaw, Route: Route{3}.Loopback()}).OK {
		t.Error("raw loopback of a valid switch probe failed")
	}
	if sn.Do(h0, Probe{Kind: ProbeRaw, Route: Route{3, 3}}).OK {
		t.Error("raw loopback delivered to another host counted as loopback")
	}
}

func TestFlakyProber(t *testing.T) {
	sn, h0, _ := probeNet(t)
	f := &FlakyProber{Prober: sn.Endpoint(h0), DropRate: 1.0, Rng: rand.New(rand.NewSource(1))}
	if Do(f, Probe{Kind: ProbeHost, Route: Route{3, 3}}).OK {
		t.Error("drop-rate-1 prober returned a response")
	}
	if Do(f, Probe{Kind: ProbeSwitch, Route: Route{3}}).OK {
		t.Error("drop-rate-1 switch probe returned")
	}
	if f.Dropped != 2 {
		t.Errorf("dropped = %d", f.Dropped)
	}
	if f.LocalHost() != "h0" {
		t.Errorf("LocalHost = %q", f.LocalHost())
	}
	f.DropRate = 0
	if !Do(f, Probe{Kind: ProbeHost, Route: Route{3, 3}}).OK {
		t.Error("drop-rate-0 prober lost a response")
	}
}

func TestProbeLogHook(t *testing.T) {
	sn, h0, _ := probeNet(t)
	var kinds []string
	sn.SetProbeLog(func(kind string, _ topology.NodeID, _ Route, _ bool) {
		kinds = append(kinds, kind)
	})
	sn.Do(h0, Probe{Kind: ProbeHost, Route: Route{3, 3}})
	sn.Do(h0, Probe{Kind: ProbeSwitch, Route: Route{3}})
	sn.Do(h0, Probe{Kind: ProbeRaw, Route: Route{3}.Loopback()})
	sn.SetProbeLog(nil)
	sn.Do(h0, Probe{Kind: ProbeHost, Route: Route{3, 3}})
	if len(kinds) != 3 || kinds[0] != "host" || kinds[1] != "switch" || kinds[2] != "raw" {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestEndpointBinding(t *testing.T) {
	sn, h0, _ := probeNet(t)
	ep := sn.Endpoint(h0)
	if ep.LocalHost() != "h0" || ep.Host() != h0 || ep.Net() != sn {
		t.Error("endpoint identity broken")
	}
	if r := Do(ep, Probe{Kind: ProbeHost, Route: Route{3, 3}}); !r.OK || r.Host != "h1" {
		t.Errorf("endpoint host probe: %q %v", r.Host, r.OK)
	}
	if !Do(ep, Probe{Kind: ProbeSwitch, Route: Route{3}}).OK {
		t.Error("endpoint switch probe")
	}
	if ep.Stats().TotalProbes() != 2 {
		t.Errorf("endpoint stats %+v", ep.Stats())
	}
	defer func() {
		if recover() == nil {
			t.Error("endpoint on a switch should panic")
		}
	}()
	sn.Endpoint(sn.Topology().Lookup("s0"))
}
