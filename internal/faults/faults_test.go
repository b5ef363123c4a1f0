package faults

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// twoSwitchLine builds H0 -- S0 -- S1 -- H1 with known port numbers, so
// tests can write routes and wire indices by hand:
//
//	wire 0: H0[0]--S0[0]   wire 1: S0[1]--S1[1]   wire 2: S1[2]--H1[0]
//
// The H0→H1 route is {+1, +1}.
func twoSwitchLine(t *testing.T) (*topology.Network, topology.NodeID, topology.NodeID) {
	t.Helper()
	n := &topology.Network{}
	s0 := n.AddSwitch("S0")
	s1 := n.AddSwitch("S1")
	h0 := n.AddHost("H0")
	h1 := n.AddHost("H1")
	for _, c := range [][4]int{
		{int(h0), 0, int(s0), 0},
		{int(s0), 1, int(s1), 1},
		{int(s1), 2, int(h1), 0},
	} {
		if _, err := n.Connect(topology.NodeID(c[0]), c[1], topology.NodeID(c[2]), c[3]); err != nil {
			t.Fatalf("Connect: %v", err)
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return n, h0, s1
}

func TestClassifyLinkDown(t *testing.T) {
	net, h0, _ := twoSwitchLine(t)
	sn := simnet.NewDefault(net)
	inj := Attach(sn, Schedule{Events: []Event{{At: 1, Kind: LinkCut, Wire: 1}}})
	inj.ApplyAll()

	ep := sn.Endpoint(h0)
	r := ep.Submit(simnet.Probe{Kind: simnet.ProbeHost, Route: simnet.Route{1, 1}})
	if r.OK {
		t.Fatalf("probe across cut link succeeded: %+v", r)
	}
	if !errors.Is(r.Err, ErrLinkDown) {
		t.Errorf("want ErrLinkDown in %v", r.Err)
	}
	if !errors.Is(r.Err, simnet.ErrTimeout) {
		t.Errorf("want ErrTimeout wrapped alongside the sentinel in %v", r.Err)
	}
	if errors.Is(r.Err, ErrSwitchDead) {
		t.Errorf("ErrSwitchDead misclassification in %v", r.Err)
	}
}

func TestClassifySwitchDead(t *testing.T) {
	net, h0, s1 := twoSwitchLine(t)
	sn := simnet.NewDefault(net)
	inj := Attach(sn, Schedule{Events: []Event{{At: 1, Kind: SwitchDown, Node: s1}}})
	inj.ApplyAll()

	ep := sn.Endpoint(h0)
	r := ep.Submit(simnet.Probe{Kind: simnet.ProbeHost, Route: simnet.Route{1, 1}})
	if r.OK {
		t.Fatalf("probe through dead switch succeeded: %+v", r)
	}
	if !errors.Is(r.Err, ErrSwitchDead) {
		t.Errorf("want ErrSwitchDead in %v", r.Err)
	}
	if !errors.Is(r.Err, simnet.ErrTimeout) {
		t.Errorf("want ErrTimeout wrapped alongside the sentinel in %v", r.Err)
	}
}

func TestSwitchRestartRestoresService(t *testing.T) {
	net, h0, s1 := twoSwitchLine(t)
	sn := simnet.NewDefault(net)
	inj := Attach(sn, Schedule{Events: []Event{
		{At: 1, Kind: SwitchDown, Node: s1},
		{At: 2, Kind: SwitchUp, Node: s1},
	}})
	inj.ApplyAll()

	ep := sn.Endpoint(h0)
	if r := simnet.Do(ep, simnet.Probe{Kind: simnet.ProbeHost, Route: simnet.Route{1, 1}}); !r.OK || r.Host != "H1" {
		t.Fatalf("probe after restart: host=%q ok=%v", r.Host, r.OK)
	}
}

func TestLinkFlapRestoresService(t *testing.T) {
	net, h0, _ := twoSwitchLine(t)
	sn := simnet.NewDefault(net)
	inj := Attach(sn, Schedule{Events: []Event{
		{At: 1, Kind: LinkCut, Wire: 1},
		{At: 2, Kind: LinkRestore, Wire: 1},
	}})
	inj.ApplyAll()

	ep := sn.Endpoint(h0)
	if r := simnet.Do(ep, simnet.Probe{Kind: simnet.ProbeHost, Route: simnet.Route{1, 1}}); !r.OK || r.Host != "H1" {
		t.Fatalf("probe after flap restore: host=%q ok=%v", r.Host, r.OK)
	}
	// The flap must be on the record even though it healed.
	var sawCut, sawRestore bool
	for _, rec := range inj.Log() {
		switch rec.What {
		case "link-cut":
			sawCut = true
		case "link-restore":
			sawRestore = true
		}
	}
	if !sawCut || !sawRestore {
		t.Errorf("log misses flap events:\n%s", FormatLog(inj.Log()))
	}
}

func TestProbeLossClassification(t *testing.T) {
	net, h0, _ := twoSwitchLine(t)
	sn := simnet.NewDefault(net)
	Attach(sn, Schedule{LossRate: 1, Seed: 7})

	ep := sn.Endpoint(h0)
	r := ep.Submit(simnet.Probe{Kind: simnet.ProbeHost, Route: simnet.Route{1, 1}})
	if r.OK {
		t.Fatalf("probe under LossRate=1 succeeded")
	}
	if !errors.Is(r.Err, simnet.ErrTimeout) {
		t.Errorf("lost response must classify as timeout, got %v", r.Err)
	}
	if errors.Is(r.Err, simnet.ErrTruncated) {
		t.Errorf("loss misclassified as truncation: %v", r.Err)
	}
}

func TestProbeTruncationClassification(t *testing.T) {
	net, h0, _ := twoSwitchLine(t)
	sn := simnet.NewDefault(net)
	Attach(sn, Schedule{TruncRate: 1, Seed: 7})

	ep := sn.Endpoint(h0)
	r := ep.Submit(simnet.Probe{Kind: simnet.ProbeHost, Route: simnet.Route{1, 1}})
	if r.OK {
		t.Fatalf("probe under TruncRate=1 succeeded")
	}
	if !errors.Is(r.Err, simnet.ErrTruncated) {
		t.Errorf("want ErrTruncated, got %v", r.Err)
	}
}

func TestEmptyScheduleByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := topology.MustRing(5, 2, rng)

	run := func(attach bool) (string, simnet.Stats) {
		sn := simnet.NewDefault(ref.Clone())
		if attach {
			Attach(sn, Schedule{})
		}
		h0 := sn.Topology().Hosts()[0]
		m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(sn.Topology().DepthBound(h0)))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return m.Network.String(), sn.Stats()
	}
	bare, bareStats := run(false)
	inj, injStats := run(true)
	if bare != inj {
		t.Errorf("empty schedule changed the map:\nbare: %s\nwith: %s", bare, inj)
	}
	if bareStats != injStats {
		t.Errorf("empty schedule changed transport stats: %+v vs %+v", bareStats, injStats)
	}
}

func TestInjectorLogDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := topology.MustRing(6, 2, rng)
	sched := Generate(ref, 42, Profile{Cuts: 1, Flaps: 1, LossRate: 0.02})

	run := func() (string, string) {
		sn := simnet.NewDefault(ref.Clone())
		inj := Attach(sn, sched)
		h0 := sn.Topology().Hosts()[0]
		s, err := mapper.NewSession(sn.Endpoint(h0),
			mapper.WithDepth(sn.Topology().DepthBound(h0)+4),
			mapper.WithConfirm(2))
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		m, err := s.Map()
		if err != nil {
			t.Fatalf("Map: %v", err)
		}
		return m.Network.String(), FormatLog(inj.Log())
	}
	m1, l1 := run()
	m2, l2 := run()
	if m1 != m2 {
		t.Errorf("maps differ across identical chaos runs:\n%s\n%s", m1, m2)
	}
	if l1 != l2 {
		t.Errorf("fault logs differ across identical chaos runs:\n%s---\n%s", l1, l2)
	}
}

func TestGenerateDeterministicAndConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := topology.MustRing(8, 1, rng)
	a := Generate(ref, 99, Profile{Cuts: 2, Flaps: 1, SwitchKills: 1, Restart: true})
	b := Generate(ref, 99, Profile{Cuts: 2, Flaps: 1, SwitchKills: 1, Restart: true})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Generate not deterministic:\n%+v\n%+v", a, b)
	}
	if len(a.Events) == 0 {
		t.Fatalf("Generate produced no events")
	}
	for _, ev := range a.Events {
		if ev.At <= 0 {
			t.Errorf("event at non-positive time: %+v", ev)
		}
	}
	// Permanent cuts alone must not disconnect the network (they are drawn
	// from non-bridge wires against the running sandbox).
	clone := ref.Clone()
	for _, ev := range a.Events {
		if ev.Kind == LinkCut {
			restored := false
			for _, r := range a.Events {
				if r.Kind == LinkRestore && r.Wire == ev.Wire {
					restored = true
				}
			}
			if !restored {
				if err := clone.RemoveWire(ev.Wire); err != nil {
					t.Fatalf("RemoveWire(%d): %v", ev.Wire, err)
				}
			}
		}
	}
	if !clone.IsConnected() {
		t.Errorf("permanent cuts disconnected the network")
	}
}

func TestSurvivingCore(t *testing.T) {
	net, h0, s1 := twoSwitchLine(t)
	// Kill S1: H1 goes with it; the surviving core seen from H0 is H0--S0,
	// whose core prunes the now degree-1 S0... leaving exactly the component
	// containing H0 minus F.
	sn := simnet.NewDefault(net)
	inj := Attach(sn, Schedule{Events: []Event{{At: 1, Kind: SwitchDown, Node: s1}}})
	inj.ApplyAll()
	core := SurvivingCore(sn.Topology(), h0)
	if core.NumHosts() != 1 {
		t.Errorf("surviving core hosts = %d, want 1: %v", core.NumHosts(), core)
	}
	if core.Lookup("H1") != topology.None {
		t.Errorf("dead side host H1 leaked into surviving core")
	}
}

func TestCrossTrafficQuantised(t *testing.T) {
	net, h0, _ := twoSwitchLine(t)
	sn := simnet.NewDefault(net)
	Attach(sn, Schedule{CrossRate: 0.5, CrossQuantum: time.Millisecond, Seed: 1})
	ep := sn.Endpoint(h0)
	// Under a 50% per-hop rate some probes must fail and some succeed over
	// enough quanta; determinism is covered by TestInjectorLogDeterminism.
	hits, misses := 0, 0
	for i := 0; i < 40; i++ {
		if simnet.Do(ep, simnet.Probe{Kind: simnet.ProbeHost, Route: simnet.Route{1, 1}}).OK {
			hits++
		} else {
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Errorf("cross-traffic at 0.5 gave hits=%d misses=%d; busy set looks stuck", hits, misses)
	}
}
