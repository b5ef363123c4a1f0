package flow

import (
	"math/rand"
	"testing"
)

func TestMaxFlowDiamond(t *testing.T) {
	// s -> a, s -> b, a -> t, b -> t, a -> b: classic diamond, max flow 2.
	g := New(4)
	s, a, b, tt := 0, 1, 2, 3
	g.AddArc(s, a, 1, 0)
	g.AddArc(s, b, 1, 0)
	g.AddArc(a, tt, 1, 0)
	g.AddArc(b, tt, 1, 0)
	g.AddArc(a, b, 1, 0)
	if got := g.MaxFlow(s, tt, -1); got != 2 {
		t.Errorf("max flow %d, want 2", got)
	}
}

func TestMaxFlowLimit(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1, 10, 0)
	if got := g.MaxFlow(0, 1, 3); got != 3 {
		t.Errorf("limited flow %d, want 3", got)
	}
}

func TestMinCostPrefersCheapPath(t *testing.T) {
	// Two disjoint paths of costs 1 and 3; one unit should take the cheap
	// one, two units both.
	g := New(4)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 3, 1, 0)
	g.AddArc(0, 2, 1, 3)
	g.AddArc(2, 3, 1, 0)
	pushed, cost, err := g.MinCostFlow(0, 3, 1)
	if err != nil || pushed != 1 || cost != 1 {
		t.Errorf("1 unit: pushed=%d cost=%d err=%v", pushed, cost, err)
	}
	pushed, cost, err = g.MinCostFlow(0, 3, 1) // second unit on the same graph
	if err != nil || pushed != 1 || cost != 3 {
		t.Errorf("2nd unit: pushed=%d cost=%d err=%v", pushed, cost, err)
	}
}

func TestMinCostStopsAtCapacity(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1, 2, 5)
	pushed, cost, err := g.MinCostFlow(0, 1, 10)
	if err != nil || pushed != 2 || cost != 10 {
		t.Errorf("pushed=%d cost=%d err=%v", pushed, cost, err)
	}
}

// TestUndirectedEdgeNeverBothDirections: with positive costs, a min-cost
// flow over AddEdge pairs uses at most one direction of each edge — the
// property Definition 2's "does not repeat an edge in either direction"
// computation relies on.
func TestUndirectedEdgeNeverBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(5)
		g := New(n + 1)
		type pair struct{ fwd, rev int }
		var pairs []pair
		// Random connected-ish undirected graph.
		for i := 1; i < n; i++ {
			f, r := g.AddEdge(rng.Intn(i), i, 1, 1)
			pairs = append(pairs, pair{f, r})
		}
		for k := 0; k < n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				f, r := g.AddEdge(a, b, 1, 1)
				pairs = append(pairs, pair{f, r})
			}
		}
		// Sink arcs from two random nodes.
		t1, t2 := rng.Intn(n), rng.Intn(n)
		g.AddArc(t1, n, 1, 0)
		g.AddArc(t2, n, 1, 0)
		src := rng.Intn(n)
		if _, _, err := g.MinCostFlow(src, n, 2); err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if g.Flow(p.fwd) > 0 && g.Flow(p.rev) > 0 {
				t.Fatalf("trial %d: both directions of an undirected edge carry flow", trial)
			}
		}
	}
}

// TestMinCostEqualsMaxFlowValue: the amount pushed by MinCostFlow matches
// MaxFlow on the same network (cost optimisation must not lose throughput).
func TestMinCostEqualsMaxFlowValue(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(5)
		build := func() *Graph {
			g := New(n)
			r := rand.New(rand.NewSource(int64(trial)))
			for i := 1; i < n; i++ {
				g.AddEdge(r.Intn(i), i, int64(1+r.Intn(2)), int64(1+r.Intn(4)))
			}
			for k := 0; k < n; k++ {
				a, b := r.Intn(n), r.Intn(n)
				if a != b {
					g.AddArc(a, b, int64(1+r.Intn(2)), int64(1+r.Intn(4)))
				}
			}
			return g
		}
		s, d := 0, n-1
		mf := build().MaxFlow(s, d, -1)
		pushed, _, err := build().MinCostFlow(s, d, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if pushed != mf {
			t.Fatalf("trial %d: mincost pushed %d, maxflow %d", trial, pushed, mf)
		}
	}
}

func TestAddArcValidation(t *testing.T) {
	g := New(2)
	for _, f := range []func(){
		func() { g.AddArc(-1, 0, 1, 0) },
		func() { g.AddArc(0, 2, 1, 0) },
		func() { g.AddArc(0, 1, -1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestTwoUnitCostMatchesMinCostFlow: on random directed networks with mixed
// capacities and costs, TwoUnitCost answers for every source exactly what a
// full MinCostFlow(s, t, 2) on a fresh copy does, and leaves no flow behind.
func TestTwoUnitCostMatchesMinCostFlow(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 3 + rng.Intn(8)
		build := func() *Graph {
			r := rand.New(rand.NewSource(int64(trial)))
			g := New(n)
			for k := r.Intn(3 * n); k >= 0; k-- {
				a, b := r.Intn(n), r.Intn(n)
				if r.Intn(2) == 0 {
					g.AddEdge(a, b, int64(1+r.Intn(2)), int64(r.Intn(5)))
				} else {
					g.AddArc(a, b, int64(r.Intn(3)), int64(r.Intn(5)))
				}
			}
			return g
		}
		sink := rng.Intn(n)
		shared := build()
		for s := 0; s < n; s++ {
			if s == sink {
				continue
			}
			wantPushed, wantCost, err := build().MinCostFlow(s, sink, 2)
			if err != nil {
				t.Fatal(err)
			}
			pushed, cost := shared.TwoUnitCost(s, sink)
			if pushed != wantPushed || (pushed > 0 && cost != wantCost) {
				t.Fatalf("trial %d source %d sink %d: got %d units cost %d, want %d units cost %d",
					trial, s, sink, pushed, cost, wantPushed, wantCost)
			}
		}
		for arc := 0; arc < len(shared.to); arc += 2 {
			if shared.Flow(arc) != 0 {
				t.Fatalf("trial %d: arc %d still carries flow", trial, arc)
			}
		}
	}
}

// TestTwoUnitCostAllocatesOnce: after the first call for a sink, further
// sources reuse the graph's scratch.
func TestTwoUnitCostAllocatesOnce(t *testing.T) {
	g := New(6)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 1, 1)
		g.AddEdge(i, (i+2)%5, 1, 1)
	}
	g.AddArc(0, 5, 1, 0)
	g.AddArc(3, 5, 1, 0)
	g.TwoUnitCost(1, 5)
	if allocs := testing.AllocsPerRun(50, func() {
		for s := 0; s < 5; s++ {
			g.TwoUnitCost(s, 5)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocs per sweep, want 0", allocs)
	}
}
