package simnet

import (
	"math/rand"
	"testing"

	"sanmap/internal/topology"
)

// randomRoutes generates a deterministic mix of delivering, failing and
// prefix-sharing routes of bounded depth.
func randomRoutes(rng *rand.Rand, count, depth int) []Route {
	routes := make([]Route, 0, count)
	for len(routes) < count {
		r := make(Route, 1+rng.Intn(depth))
		for i := range r {
			t := Turn(rng.Intn(2*MaxTurn+1) - MaxTurn)
			if t == 0 {
				t = 1
			}
			r[i] = t
		}
		routes = append(routes, r)
		// Half the time, follow with a sibling sharing a long prefix — the
		// frontier-probe pattern the memo exists for.
		if rng.Intn(2) == 0 && len(r) > 1 {
			s := append(Route(nil), r...)
			s[len(s)-1] = -s[len(s)-1]
			routes = append(routes, s)
		}
	}
	return routes[:count]
}

// TestEvalCacheMatchesFresh: evaluating any route sequence through one
// warm-memo Net gives exactly the results (and hop traces) a fresh,
// memo-cold Net gives per route — the memo is invisible.
func TestEvalCacheMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := topology.MustRandomConnected(6, 8, 4, rng)
	hosts := net.Hosts()
	warm := NewDefault(net)
	routes := randomRoutes(rng, 400, 10)
	for i, r := range routes {
		// Blocks of trials per source: changing the source invalidates the
		// memo, so give each source a run of routes for prefixes to hit in.
		from := hosts[(i/40)%len(hosts)]
		got, gotHops := warm.EvalPath(from, r)
		fresh := NewDefault(net)
		want, wantHops := fresh.EvalPath(from, r)
		if got != want {
			t.Fatalf("route %d (%v from %v): warm %+v, fresh %+v", i, r, from, got, want)
		}
		if len(gotHops) != len(wantHops) {
			t.Fatalf("route %d: warm %d hops, fresh %d", i, len(gotHops), len(wantHops))
		}
		for j := range gotHops {
			if gotHops[j] != wantHops[j] {
				t.Fatalf("route %d hop %d: warm %+v, fresh %+v", i, j, gotHops[j], wantHops[j])
			}
		}
	}
	if st := warm.EvalCacheStats(); st.Hits == 0 || st.TurnsSaved == 0 {
		t.Errorf("memo never hit over a prefix-heavy workload: %+v", st)
	}
}

// TestEvalCacheCounters: exact repeats and prefix extensions hit; new
// sources and changed prefixes miss.
func TestEvalCacheCounters(t *testing.T) {
	n, h0, h1 := lineNet(t)
	sn := NewDefault(n)

	sn.Eval(h0, Route{3, 3})
	st := sn.EvalCacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.TurnsWalked != 2 {
		t.Fatalf("after first eval: %+v", st)
	}

	sn.Eval(h0, Route{3, 3}) // exact repeat: no walking at all
	st = sn.EvalCacheStats()
	if st.Hits != 1 || st.TurnsSaved != 2 || st.TurnsWalked != 2 {
		t.Fatalf("after exact repeat: %+v", st)
	}

	// Shares the 1-turn prefix; the novel turn fails (s1 port 4 is unwired)
	// so it counts as neither saved nor walked.
	sn.Eval(h0, Route{3, 1})
	st = sn.EvalCacheStats()
	if st.Hits != 2 || st.TurnsSaved != 3 || st.TurnsWalked != 2 {
		t.Fatalf("after prefix sibling: %+v", st)
	}

	sn.Eval(h1, Route{3, 3}) // new source: full walk
	st = sn.EvalCacheStats()
	if st.Misses != 2 {
		t.Fatalf("after source change: %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Errorf("hit rate %v out of (0,1)", st.HitRate())
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}

// TestEvalCacheEpochInvalidation: SetResponder (and Reconfigure) bump the
// net's epoch, forcing the next evaluation to re-walk.
func TestEvalCacheEpochInvalidation(t *testing.T) {
	n, h0, h1 := lineNet(t)
	sn := NewDefault(n)
	sn.Eval(h0, Route{3, 3})
	sn.Eval(h0, Route{3, 3})
	if st := sn.EvalCacheStats(); st.Hits != 1 {
		t.Fatalf("warm-up: %+v", st)
	}
	sn.SetResponder(h1, false)
	res := sn.Eval(h0, Route{3, 3})
	if res.Outcome != Delivered { // evaluation itself ignores responders
		t.Fatalf("res = %+v", res)
	}
	if st := sn.EvalCacheStats(); st.Misses != 2 {
		t.Fatalf("SetResponder did not invalidate the memo: %+v", st)
	}
	sn.Eval(h0, Route{3, 3})
	sn.Reconfigure()
	sn.Eval(h0, Route{3, 3})
	if st := sn.EvalCacheStats(); st.Misses != 3 {
		t.Fatalf("Reconfigure did not invalidate the memo: %+v", st)
	}
}

// TestEvalCacheTopologyInvalidation: structural edits (reflectors, wire
// removal) are seen through the topology version counter; cached traversal
// state never leaks a stale wire.
func TestEvalCacheTopologyInvalidation(t *testing.T) {
	n, h0, _ := lineNet(t)
	s0 := n.Lookup("s0")
	sn := NewDefault(n)

	// s0 entry port 2, turn +1 -> port 3: unwired.
	if res := sn.Eval(h0, Route{1}); res.Outcome != NoSuchWire {
		t.Fatalf("pre-reflector: %+v", res)
	}
	if err := n.AddReflector(s0, 3); err != nil {
		t.Fatal(err)
	}
	// Same route, same memo keys except the topology version: the probe now
	// bounces off the plug and strands on s0.
	if res := sn.Eval(h0, Route{1}); res.Outcome != Stranded {
		t.Fatalf("post-reflector: %+v", res)
	}

	if res := sn.Eval(h0, Route{3, 3}); res.Outcome != Delivered {
		t.Fatalf("pre-removal: %+v", res)
	}
	wi := n.WireAt(s0, 5) // the s0—s1 trunk
	if err := n.RemoveWire(wi); err != nil {
		t.Fatal(err)
	}
	if res := sn.Eval(h0, Route{3, 3}); res.Outcome != NoSuchWire {
		t.Fatalf("post-removal: %+v", res)
	}
}

// TestEvalCacheModelKey: interleaving models through EvalModel never
// resumes traversal state recorded under a different collision model.
func TestEvalCacheModelKey(t *testing.T) {
	n, h0, _ := lineNet(t)
	sn := NewDefault(n)
	// Out to s1, back to s0, forward over the trunk again: reuses the
	// s0->s1 direction — legal under the packet model (Span 1), a
	// self-collision under circuit.
	r := Route{3, 0, 0}
	if res := sn.EvalModel(h0, r, PacketModel); res.Outcome == SelfCollision {
		t.Fatalf("packet model: %+v", res)
	}
	if res := sn.EvalModel(h0, r, CircuitModel); res.Outcome != SelfCollision {
		t.Fatalf("circuit model after packet: %+v", res)
	}
	if res := sn.EvalModel(h0, r, PacketModel); res.Outcome == SelfCollision {
		t.Fatalf("packet model after circuit: %+v", res)
	}
}

// TestEvalZeroAllocs locks the tentpole property: steady-state evaluation —
// repeats, prefix extensions, failures, switch-probe loopbacks — performs
// zero heap allocations per probe.
func TestEvalZeroAllocs(t *testing.T) {
	n, h0, _ := lineNet(t)
	sn := NewDefault(n)
	routes := []Route{
		{3, 3},    // delivered
		{3, 1},    // no such wire at s1
		{3, 3, 1}, // hit host too soon
		{3},       // stranded
		{6},       // illegal turn
		{3, 3},    // exact repeat
	}
	// Warm up: grow every scratch buffer to its high-water mark.
	for _, r := range routes {
		sn.Eval(h0, r)
		sn.Do(h0, Probe{Kind: ProbeSwitch, Route: r[:1]})
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, r := range routes {
			sn.Eval(h0, r)
		}
	})
	if allocs != 0 {
		t.Errorf("Eval: AllocsPerRun = %v, want 0", allocs)
	}
	// The probe layer (loopback expansion included) must stay allocation-free
	// too; probe counters and the virtual clock are plain field updates.
	// Routes are hoisted so the slice literals don't charge the closure.
	sw, hp := Route{3}, Route{3, 3}
	allocs = testing.AllocsPerRun(200, func() {
		sn.Do(h0, Probe{Kind: ProbeSwitch, Route: sw})
		sn.Do(h0, Probe{Kind: ProbeHost, Route: hp})
	})
	if allocs != 0 {
		t.Errorf("probe path: AllocsPerRun = %v, want 0", allocs)
	}
}
