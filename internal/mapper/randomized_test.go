package mapper

import (
	"errors"
	"math/rand"
	"testing"

	"sanmap/internal/faults"
	"sanmap/internal/isomorph"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// intolerant is a transport view without the §6 firmware change: it
// executes host and switch probes but not ProbeTolerant.
type intolerant struct{ simnet.Prober }

func (intolerant) Probes() simnet.ProbeCaps { return simnet.CapHost | simnet.CapSwitch }

// TestCouponSessionRefusals: a coupon session is refused at NewSession, before
// any probe, when the transport has no tolerant hosts or the rng is nil; a
// plain session over the same transport is not.
func TestCouponSessionRefusals(t *testing.T) {
	net := topology.MustHypercube(3, 2, rand.New(rand.NewSource(5)))
	h0 := net.Hosts()[0]
	depth := net.DepthBound(h0)

	sn := simnet.NewDefault(net)
	_, err := NewSession(sn.Endpoint(h0), WithDepth(depth), WithCoupons(10, nil))
	if err == nil || err.Error() != "mapper: WithCoupons needs a non-nil rng" {
		t.Errorf("nil rng: err = %v", err)
	}

	ep := intolerant{sn.Endpoint(h0)}
	_, err = NewSession(ep, WithDepth(depth), WithCoupons(10, rand.New(rand.NewSource(1))))
	if !errors.Is(err, simnet.ErrUnsupported) ||
		err.Error() != "mapper: transport lacks a probe kind the algorithm needs: "+simnet.ErrUnsupported.Error() {
		t.Errorf("intolerant transport: err = %v", err)
	}
	if _, err := NewSession(ep, WithDepth(depth)); err != nil {
		t.Errorf("plain session over an intolerant transport: %v", err)
	}
	if n := sn.Stats().TotalProbes(); n != 0 {
		t.Errorf("refused sessions sent %d probes", n)
	}
}

// TestCouponSessionUncheckpointable: the coupon phase draws from an rng the
// checkpoint image cannot hold, so Checkpoint refuses the session and
// RestoreSession refuses the option.
func TestCouponSessionUncheckpointable(t *testing.T) {
	net := topology.MustHypercube(3, 2, rand.New(rand.NewSource(5)))
	h0 := net.Hosts()[0]
	opts := []Option{WithDepth(net.DepthBound(h0)), WithCoupons(32, rand.New(rand.NewSource(9)))}
	s, err := NewSession(simnet.NewDefault(net).Endpoint(h0), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, ErrUncheckpointable) {
		t.Errorf("Checkpoint: err = %v, want ErrUncheckpointable", err)
	}
	if _, err := RestoreSession(simnet.NewDefault(net).Endpoint(h0), nil, opts...); !errors.Is(err, ErrUncheckpointable) {
		t.Errorf("RestoreSession: err = %v, want ErrUncheckpointable", err)
	}
}

// TestCouponSessionMapsOnce: the coupon phase belongs to the first Map; a
// second Map on the drained session sends no probe and returns the same
// network.
func TestCouponSessionMapsOnce(t *testing.T) {
	net := topology.MustHypercube(3, 2, rand.New(rand.NewSource(5)))
	h0 := net.Hosts()[0]
	sn := simnet.NewDefault(net)
	s, err := NewSession(sn.Endpoint(h0), WithDepth(net.DepthBound(h0)), WithCoupons(64, rand.New(rand.NewSource(42))))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Map()
	if err != nil {
		t.Fatal(err)
	}
	probes := sn.Stats().TotalProbes()
	second, err := s.Map()
	if err != nil {
		t.Fatal(err)
	}
	if n := sn.Stats().TotalProbes() - probes; n != 0 {
		t.Errorf("second Map sent %d probes", n)
	}
	if ok, reason := isomorph.Check(first.Network, second.Network); !ok {
		t.Errorf("second Map differs: %s", reason)
	}
}

// TestCouponSessionRemapHealsLinkCut: the hybrid's model is an ordinary
// session model, so after one cut Remap heals it to the surviving core —
// whichever of the ring's six wires is cut.
func TestCouponSessionRemapHealsLinkCut(t *testing.T) {
	for k := 0; k < 6; k++ {
		net := topology.MustRing(6, 2, rand.New(rand.NewSource(22)))
		h0 := net.Hosts()[0]
		sn := simnet.NewDefault(net)
		s, err := NewSession(sn.Endpoint(h0), WithDepth(healDepth(net)), WithCoupons(60, rand.New(rand.NewSource(7+int64(k)))))
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		res, err := s.Map()
		if err != nil {
			t.Fatalf("cut %d: Map: %v", k, err)
		}
		if err := isomorph.MustEqualCore(res.Network, net); err != nil {
			t.Fatalf("cut %d: hybrid map: %v", k, err)
		}

		cutNthSwitchWire(t, sn.Topology(), false, k)
		sn.Reconfigure()
		if res, err = s.Remap(); err != nil {
			t.Fatalf("cut %d: Remap: %v", k, err)
		}
		want := faults.SurvivingCore(sn.Topology(), h0)
		if ok, reason := isomorph.Check(res.Network, want); !ok {
			t.Errorf("cut %d: healed hybrid map not isomorphic to surviving core: %s", k, reason)
		}
		if res.Stats.Contradictions == 0 {
			t.Errorf("cut %d: remap recorded no contradictions", k)
		}
	}
}
