package routes

import (
	"math/rand"
	"slices"
	"testing"

	"sanmap/internal/genspec"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// diffSpecs names one sample per generator (the test fails when
// the genspec table grows without it).
var diffSpecs = []string{
	"butterfly:2x3", "d3:4,3", "dragonfly:3,2,1", "fattree:4x3", "fattree2:12x2",
	"hypercube:4", "line:5", "mesh:4x3", "now-c", "now-ca", "now-cab",
	"random:8,10,4", "ring:6", "star:4", "torus:3x4",
}

// sameAsOracle checks that the flat table answers every ordered node pair —
// hosts, switches and out-of-range ids alike — exactly as the nested maps do:
// the same turns, and a walked wire path equal to the oracle's. Pairs must
// visit exactly the routed pairs with the same paths.
func sameAsOracle(t *testing.T, what string, tab *Table, o *oracleTable) {
	t.Helper()
	n := topology.NodeID(tab.Net.NumNodes())
	routed := 0
	for s := topology.None; s <= n; s++ {
		for d := topology.None; d <= n; d++ {
			wantR, wantOK := o.turns[s][d]
			gotR, gotOK := tab.Route(s, d)
			if gotOK != wantOK || !slices.Equal(gotR, wantR) {
				t.Fatalf("%s: Route(%d,%d) = %v,%v, oracle %v,%v", what, s, d, gotR, gotOK, wantR, wantOK)
			}
			wantW := o.paths[s][d]
			p, gotOK := tab.WirePath(s, d)
			if gotW := walked(t, tab.Net, s, d, p); gotOK != wantOK || p.Len() != len(wantW) || !slices.Equal(gotW, wantW) {
				t.Fatalf("%s: WirePath(%d,%d) walks %v (Len %d),%v, oracle %v,%v", what, s, d, gotW, p.Len(), gotOK, wantW, wantOK)
			}
			if gotOK {
				routed++
			}
		}
	}
	if got, want := tab.VerifyDeadlockFree() == nil, oracleDeadlockFree(tab.Net, o); got != want {
		t.Fatalf("%s: VerifyDeadlockFree says deadlock free %v, the map-based check %v", what, got, want)
	}
	visited := 0
	tab.Pairs(func(s, d topology.NodeID, p Path) {
		if want, _ := tab.WirePath(s, d); !slices.Equal(p.Route(), want.Route()) {
			t.Fatalf("%s: Pairs gives %d->%d route %v, WirePath %v", what, s, d, p.Route(), want.Route())
		}
		visited++
	})
	if visited != routed {
		t.Fatalf("%s: Pairs visited %d pairs, %d are routed", what, visited, routed)
	}
}

// walked returns p's wires in order, checking each step of the walk: the
// first wire is src's own, each later one is entered at the switch the
// previous one reached, the step's ends and channel belong to its wire, and
// the last wire reaches dst.
func walked(t *testing.T, net *topology.Network, src, dst topology.NodeID, p Path) []int {
	t.Helper()
	var wires []int
	at := src
	for w := p.Walk(); w.Next(); {
		wire := net.WireByIndex(w.Wire())
		from, to := w.From(), w.To()
		dir := 0
		if from != wire.A {
			dir = 1
		}
		if from.Node != at || (len(wires) == 0 && from.Port != topology.HostPort) || wire.Other(from) != to || w.Channel() != 2*w.Wire()+dir {
			t.Fatalf("walk %d->%d: step %d onto wire %d %v from %v to %v (channel %d) after node %d",
				src, dst, len(wires), w.Wire(), wire, from, to, w.Channel(), at)
		}
		wires = append(wires, w.Wire())
		at = to.Node
	}
	if wires != nil && at != dst {
		t.Fatalf("walk %d->%d ends at node %d", src, dst, at)
	}
	return wires
}

// diffCompute compares Compute against the oracle on net.
func diffCompute(t *testing.T, what string, net *topology.Network) {
	t.Helper()
	tab, err := Compute(net, DefaultConfig())
	o, oerr := oracleCompute(net, DefaultConfig())
	if (err == nil) != (oerr == nil) || (err != nil && err.Error() != oerr.Error()) {
		t.Fatalf("%s: Compute error %v, oracle %v", what, err, oerr)
	}
	if err == nil {
		sameAsOracle(t, what, tab, o)
	}
}

// TestFlatTableMatchesNestedMaps: every generator × 5 port-
// embedding seeds, plus the same networks with extra parallel cables (where
// both keep the first of the parallel wires) — UP*/DOWN* and shortest-path
// tables. Both write rows from leaf-pair templates, and the oracles build
// every host pair's route on its own, so each generator checks that the
// routes factor by leaf pair.
func TestFlatTableMatchesNestedMaps(t *testing.T) {
	if got := len(genspec.Names()); got != len(diffSpecs) {
		t.Fatalf("genspec has %d generators, diffSpecs %d", got, len(diffSpecs))
	}
	for _, spec := range diffSpecs {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			res, err := genspec.Build(spec, rng)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			net := res.Net
			diffCompute(t, spec, net)
			naive, err := ShortestPaths(net)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			sameAsOracle(t, spec+" shortest", naive, oracleShortestPaths(net))

			// Double up to three random switch-switch cables.
			for k := 0; k < 3; k++ {
				wi := rng.Intn(net.NumWireSlots())
				if !net.WireAlive(wi) {
					continue
				}
				w := net.WireByIndex(wi)
				if net.KindOf(w.A.Node) == topology.SwitchNode && net.KindOf(w.B.Node) == topology.SwitchNode &&
					w.A.Node != w.B.Node && net.FreePort(w.A.Node) >= 0 && net.FreePort(w.B.Node) >= 0 {
					if _, _, _, err := net.ConnectFree(w.A.Node, w.B.Node); err != nil {
						t.Fatal(err)
					}
				}
			}
			diffCompute(t, spec+" +parallel", net)
			naive, err = ShortestPaths(net)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			sameAsOracle(t, spec+" +parallel shortest", naive, oracleShortestPaths(net))
		}
	}
}

// TestChooseRootMatchesAllNodeBFS: the bit-parallel root choice picks the
// same root as one switch-graph search per switch and as one BFS over
// every node per switch, on every registered generator × 3 seeds (and on
// two fabrics past 64 switches, so a search takes more than one pass),
// ignoring no host, the first host, a random third of the hosts (which
// leaves the leaves unevenly weighted), or every host.
func TestChooseRootMatchesAllNodeBFS(t *testing.T) {
	specs := append(slices.Clone(diffSpecs), "fattree2:128x2", "random:150,40,30")
	for _, spec := range specs {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			res, err := genspec.Build(spec, rng)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			hosts := res.Net.Hosts()
			var third []topology.NodeID
			for _, h := range hosts {
				if rng.Intn(3) == 0 {
					third = append(third, h)
				}
			}
			for _, ignore := range [][]topology.NodeID{nil, hosts[:1], third, hosts} {
				got := ChooseRoot(res.Net, ignore...)
				perSwitch, allNode := perSwitchChooseRoot(res.Net, ignore...), oracleChooseRoot(res.Net, ignore...)
				if got != perSwitch || got != allNode {
					t.Errorf("%s seed %d ignoring %d hosts: root %d, per-switch search picks %d, all-node BFS %d",
						spec, seed, len(ignore), got, perSwitch, allNode)
				}
			}
		}
	}
}

// TestFlatTableMatchesNestedMapsHealed repeats the comparison on healed,
// suspect-annotated maps: a mapper session's Remap result after link cuts
// (TestHealedTableDeadlockFree's networks), for both constructions.
func TestFlatTableMatchesNestedMapsHealed(t *testing.T) {
	for _, spec := range []string{"fattree2:8x2", "dragonfly:2,2,2"} {
		for seed := uint64(1); seed <= 3; seed++ {
			_, healed := healedMap(t, spec, seed)
			diffCompute(t, spec+" healed", healed.Network)
			naive, err := ShortestPaths(healed.Network)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			sameAsOracle(t, spec+" healed shortest", naive, oracleShortestPaths(healed.Network))
		}
	}
}

// TestPairsAscendingAndCapped: Pairs visits ordered pairs in ascending
// (src, dst) order, and no returned route can be grown into its arena
// neighbour's.
func TestPairsAscendingAndCapped(t *testing.T) {
	res, err := genspec.Build("fattree2:8x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := computeOn(t, res.Net, DefaultConfig())
	prevS, prevD, n := topology.None, topology.None, 0
	tab.Pairs(func(s, d topology.NodeID, p Path) {
		if s < prevS || (s == prevS && d <= prevD) {
			t.Fatalf("pair (%d,%d) after (%d,%d)", s, d, prevS, prevD)
		}
		prevS, prevD = s, d
		n++
		w, _ := tab.WirePath(s, d)
		r, _ := tab.Route(s, d)
		for _, turns := range []simnet.Route{p.Route(), w.Route(), r} {
			if c := cap(turns) - len(turns); c != 0 {
				t.Fatalf("pair (%d,%d): a returned route has %d spare capacity", s, d, c)
			}
		}
	})
	if h := res.Net.NumHosts(); n != h*(h-1) {
		t.Fatalf("visited %d pairs, want %d", n, h*(h-1))
	}
	// Appending to one route must not disturb the next.
	hosts := res.Net.Hosts()
	first, _ := tab.Route(hosts[0], hosts[1])
	next, _ := tab.Route(hosts[0], hosts[2])
	want := slices.Clone(next)
	_ = append(first, -1)
	if !slices.Equal(next, want) {
		t.Fatal("append to one route overwrote the next pair's")
	}
}

// TestLookupAllocatesNothing: a Route, a WirePath and a full walk of it
// cost no allocation.
func TestLookupAllocatesNothing(t *testing.T) {
	res, err := genspec.Build("fattree2:8x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := computeOn(t, res.Net, DefaultConfig())
	hosts := res.Net.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	sum := 0
	if n := testing.AllocsPerRun(100, func() {
		r, _ := tab.Route(src, dst)
		p, _ := tab.WirePath(src, dst)
		for w := p.Walk(); w.Next(); {
			sum += w.Channel() + int(w.From().Port) + int(w.To().Node)
		}
		sum += len(r) + p.Len()
	}); n != 0 {
		t.Fatalf("Route + WirePath + walk: %v allocs, want 0", n)
	}
	if sum == 0 {
		t.Fatal("walked nothing")
	}
}
