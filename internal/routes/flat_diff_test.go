package routes

import (
	"math/rand"
	"slices"
	"testing"

	"sanmap/internal/genspec"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// diffSpecs names one sample per registered generator (the test fails when
// the registry grows without it).
var diffSpecs = []string{
	"butterfly:2x3", "d3:4,3", "dragonfly:3,2,1", "fattree:4x3", "fattree2:12x2",
	"hypercube:4", "line:5", "mesh:4x3", "now-c", "now-ca", "now-cab",
	"random:8,10,4", "ring:6", "star:4", "torus:3x4",
}

// sameAsOracle checks that the flat table answers every ordered node pair —
// hosts, switches and out-of-range ids alike — exactly as the nested maps do.
func sameAsOracle(t *testing.T, what string, tab *Table, o *oracleTable) {
	t.Helper()
	n := topology.NodeID(tab.Net.NumNodes())
	for s := topology.None; s <= n; s++ {
		for d := topology.None; d <= n; d++ {
			wantW, wantOK := o.paths[s][d]
			gotW, gotOK := tab.WirePath(s, d)
			if gotOK != wantOK || !slices.Equal(gotW, wantW) {
				t.Fatalf("%s: WirePath(%d,%d) = %v,%v, oracle %v,%v", what, s, d, gotW, gotOK, wantW, wantOK)
			}
			wantR, wantOK := o.turns[s][d]
			gotR, gotOK := tab.Route(s, d)
			if gotOK != wantOK || !slices.Equal(gotR, wantR) {
				t.Fatalf("%s: Route(%d,%d) = %v,%v, oracle %v,%v", what, s, d, gotR, gotOK, wantR, wantOK)
			}
		}
	}
}

// diffCompute compares Compute against the oracle on net, without an Rng
// and with two identically seeded ones (equal tables then also mean equal
// draw sequences).
func diffCompute(t *testing.T, what string, net *topology.Network, seed int64) {
	t.Helper()
	for _, withRng := range []bool{false, true} {
		cfg, ocfg := DefaultConfig(), DefaultConfig()
		if withRng {
			cfg.Rng, ocfg.Rng = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		}
		tab, err := Compute(net, cfg)
		o, oerr := oracleCompute(net, ocfg)
		if (err == nil) != (oerr == nil) || (err != nil && err.Error() != oerr.Error()) {
			t.Fatalf("%s: Compute error %v, oracle %v", what, err, oerr)
		}
		if err != nil {
			continue
		}
		sameAsOracle(t, what, tab, o)
		if withRng && cfg.Rng.Int63() != ocfg.Rng.Int63() {
			t.Fatalf("%s: Compute and the oracle drew from the Rng a different number of times", what)
		}
	}
}

// TestFlatTableMatchesNestedMaps: every registered generator × 5 port-
// embedding seeds, plus the same networks with extra parallel cables (the
// only place the Rng is consulted) — UP*/DOWN* and shortest-path tables.
func TestFlatTableMatchesNestedMaps(t *testing.T) {
	if got := len(genspec.Names()); got != len(diffSpecs) {
		t.Fatalf("registry has %d generators, diffSpecs %d", got, len(diffSpecs))
	}
	for _, spec := range diffSpecs {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			res, err := genspec.Build(spec, rng)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			net := res.Net
			diffCompute(t, spec, net, seed)
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
			diffCompute(t, spec+" +parallel", net, seed)
		}
	}
}

// TestFlatTableMatchesNestedMapsHealed repeats the comparison on healed,
// suspect-annotated maps: a mapper session's Remap result after link cuts
// (TestHealedTableDeadlockFree's networks).
func TestFlatTableMatchesNestedMapsHealed(t *testing.T) {
	for _, spec := range []string{"fattree2:8x2", "dragonfly:2,2,2"} {
		for seed := uint64(1); seed <= 3; seed++ {
			_, healed := healedMap(t, spec, seed)
			diffCompute(t, spec+" healed", healed.Network, int64(seed))
		}
	}
}

// TestPairsAscendingAndCapped: Pairs visits ordered pairs in ascending
// (src, dst) order, and no returned slice can be grown into its arena
// neighbour's route.
func TestPairsAscendingAndCapped(t *testing.T) {
	res, err := genspec.Build("fattree2:8x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := computeOn(t, res.Net, DefaultConfig())
	prevS, prevD, n := topology.None, topology.None, 0
	tab.Pairs(func(s, d topology.NodeID, wires []int, turns simnet.Route) {
		if s < prevS || (s == prevS && d <= prevD) {
			t.Fatalf("pair (%d,%d) after (%d,%d)", s, d, prevS, prevD)
		}
		prevS, prevD = s, d
		n++
		w, _ := tab.WirePath(s, d)
		r, _ := tab.Route(s, d)
		for _, c := range []int{cap(wires) - len(wires), cap(turns) - len(turns), cap(w) - len(w), cap(r) - len(r)} {
			if c != 0 {
				t.Fatalf("pair (%d,%d): a returned slice has %d spare capacity", s, d, c)
			}
		}
	})
	if h := res.Net.NumHosts(); n != h*(h-1) {
		t.Fatalf("visited %d pairs, want %d", n, h*(h-1))
	}
	// Appending to one route must not disturb the next.
	hosts := res.Net.Hosts()
	first, _ := tab.WirePath(hosts[0], hosts[1])
	next, _ := tab.WirePath(hosts[0], hosts[2])
	want := slices.Clone(next)
	_ = append(first, -1)
	if !slices.Equal(next, want) {
		t.Fatal("append to one wire path overwrote the next pair's")
	}
}
