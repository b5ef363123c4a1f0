package routes

import (
	"testing"

	"sanmap/internal/faults"
	"sanmap/internal/genspec"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// TestHealedTableDeadlockFree computes routes from a *healed* map — the
// suspect-annotated Result a mapper Session produces after link cuts and an
// incremental Remap — and verifies the table is still UP*/DOWN* compliant
// and deadlock free. This is the property cmd/sanload and the mapd `load`
// query lean on: healing may detour traffic and shed confidence, but it
// must never hand out a route set that can wedge the fabric.
func TestHealedTableDeadlockFree(t *testing.T) {
	for _, spec := range []string{"fattree2:8x2", "dragonfly:2,2,2"} {
		for seed := uint64(1); seed <= 3; seed++ {
			net, healed := healedMap(t, spec, seed)
			tab, err := Compute(healed.Network, DefaultConfig())
			if err != nil {
				t.Fatalf("%s seed %d: compute on healed map: %v", spec, seed, err)
			}
			if err := tab.VerifyUpDown(); err != nil {
				t.Errorf("%s seed %d: healed table violates UP*/DOWN*: %v", spec, seed, err)
			}
			if err := tab.VerifyDeadlockFree(); err != nil {
				t.Errorf("%s seed %d (suspects=%d, confidence=%.2f): %v",
					spec, seed, len(healed.Suspect), healed.Confidence, err)
			}
			// Every map-derived route must still deliver on the mutated
			// actual network (translated by host name, as the distribution
			// path would).
			actual := simnet.New(net, simnet.PacketModel, simnet.DefaultTiming())
			checked := 0
			tab.Pairs(func(src, dst topology.NodeID, _ []int, turns simnet.Route) {
				aSrc := net.Lookup(healed.Network.NameOf(src))
				aDst := net.Lookup(healed.Network.NameOf(dst))
				if aSrc == topology.None || aDst == topology.None {
					t.Fatalf("%s seed %d: host translation failed", spec, seed)
				}
				if r := actual.Eval(aSrc, turns); r.Outcome != simnet.Delivered || r.Dest != aDst {
					t.Fatalf("%s seed %d: healed route %s->%s fails on actual network: %v",
						spec, seed, net.NameOf(aSrc), net.NameOf(aDst), r.Outcome)
				}
				checked++
			})
			if checked == 0 {
				t.Fatalf("%s seed %d: no routes checked", spec, seed)
			}
		}
	}
}

// healedMap maps spec's fabric, cuts two links (seeded, mapper host
// protected) and returns the damaged fabric with the session's incremental
// Remap result.
func healedMap(t *testing.T, spec string, seed uint64) (*topology.Network, *mapper.Result) {
	t.Helper()
	res, err := genspec.Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := res.Net
	h0 := net.Hosts()[0]
	sn := simnet.NewDefault(net)
	sess, err := mapper.NewSession(sn.Endpoint(h0),
		mapper.WithDepth(net.DepthBound(h0)+net.NumSwitches()),
		mapper.WithConfirm(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Map(); err != nil {
		t.Fatalf("%s seed %d: map: %v", spec, seed, err)
	}
	sched := faults.Generate(net, seed, faults.Profile{Cuts: 2, Protect: h0})
	faults.NewInjector(sn, sched).ApplyAll()
	healed, err := sess.Remap()
	if err != nil {
		t.Fatalf("%s seed %d: remap: %v", spec, seed, err)
	}
	if healed.Partial {
		t.Fatalf("%s seed %d: healed map unexpectedly partial", spec, seed)
	}
	return net, healed
}
