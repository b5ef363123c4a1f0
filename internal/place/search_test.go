package place

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"sanmap/internal/genspec"
	"sanmap/internal/loadsim"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

// randomMatrix draws a demand matrix over n of the fabric's hosts, picked
// and ordered by the seed. kind 0 is dense, 1 sparse (one pair in five
// talks), 2 dense over four volumes, so equal bounds and costs tie often.
// At least one pair always talks.
func randomMatrix(hosts []topology.NodeID, n int, seed int64, kind int) *workload.Matrix {
	rng := rand.New(rand.NewSource(seed))
	pick := rng.Perm(len(hosts))[:n]
	sub := make([]topology.NodeID, n)
	for i, j := range pick {
		sub[i] = hosts[j]
	}
	m := workload.NewMatrix(sub)
	for i := range m.Bytes {
		for j := range m.Bytes[i] {
			if i == j {
				continue
			}
			switch kind {
			case 0:
				m.Bytes[i][j] = 512 * (1 + rng.Int63n(2048))
			case 1:
				if rng.Intn(5) == 0 {
					m.Bytes[i][j] = 512 * (1 + rng.Int63n(2048))
				}
			default:
				m.Bytes[i][j] = 512 * rng.Int63n(4)
			}
		}
	}
	m.Bytes[0][n-1] += 512
	return m
}

// TestOptimizeMatchesReference holds the reworked search to the one it
// replaced: on every fabric, matrix and budget, the same Result (hosts,
// cost, expansion count, optimality) or the same error.
func TestOptimizeMatchesReference(t *testing.T) {
	specs := []string{"fattree2:8x2", "dragonfly:2,2,1", "torus:3x3", "now-c", "random:8,16,4"}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			matchReference(t, spec)
		})
	}
}

// matchReference runs the oracle's 30 seeded matrices on one fabric.
func matchReference(t *testing.T, spec string) {
	tab := fabric(t, spec)
	hosts := tab.Net.Hosts()
	checkDist(t, tab, hosts)
	for seed := int64(0); seed < 30; seed++ {
		// Nine tasks only sparse: dense, the reference search runs up to
		// its 200000-expansion budget, seconds under the race detector.
		n, kind := 2+int(seed)%8, int(seed)%3
		if n == 9 {
			kind = 1
		}
		m := randomMatrix(hosts, n, seed, kind)
		free, err := referenceOptimize(tab, m, DefaultConfig())
		if err != nil {
			t.Fatalf("%s seed %d: %v", spec, seed, err)
		}
		peak, err := MaxLinkDemand(tab, m, free.Hosts)
		if err != nil {
			t.Fatal(err)
		}
		idPeak, err := MaxLinkDemand(tab, m, Identity(m))
		if err != nil {
			t.Fatal(err)
		}
		// The capped searches check every child's links, which the
		// reference does through a map: budget them, so the oracle
		// stays seconds long while still cutting some of them short.
		cfgs := []Config{
			DefaultConfig(),
			{MaxExpand: 1},
			{MaxExpand: 50},
			{LinkCapacity: peak - 1, MaxExpand: 500}, // the optimum is out of budget
			{LinkCapacity: max(idPeak, peak) - 1, MaxExpand: 500}, // prunes; the seeds may not fit
			{LinkCapacity: 1}, // nothing fits
		}
		for i, cfg := range cfgs {
			want, werr := free, error(nil)
			if i > 0 {
				want, werr = referenceOptimize(tab, m, cfg)
			}
			got, gerr := Optimize(tab, m, cfg)
			if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
				t.Fatalf("%s seed %d n=%d %+v: error %v, reference %v", spec, seed, n, cfg, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d n=%d %+v:\n got %+v\nwant %+v", spec, seed, n, cfg, got, want)
			}
		}
	}
}

// checkDist holds build's hop distances, taken from the path length, to
// the channels a walk of each path crosses, on every ordered host pair.
func checkDist(t *testing.T, tab *routes.Table, hosts []topology.NodeID) {
	t.Helper()
	p, err := build(tab, workload.NewMatrix(hosts), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range hosts {
		for j, b := range hosts {
			walked := 0
			if i != j {
				path, ok := tab.WirePath(a, b)
				if !ok {
					t.Fatalf("no route %d -> %d", a, b)
				}
				for w := path.Walk(); w.Next(); {
					walked++
				}
			}
			if got := int(p.dist[i][j]); got != walked {
				t.Fatalf("dist %d -> %d = %d, walk crosses %d channels", a, b, got, walked)
			}
		}
	}
}

// TestOptimizeProperty brute-forces small placements on eight fabric
// families. An optimal result costs the true minimum; the reported cost is
// Cost's own (so route length is symmetric, which the folded volumes rely
// on); and no node the search can push, the root included, bounds above the
// best completion of its partial assignment.
func TestOptimizeProperty(t *testing.T) {
	specs := []string{"now-c", "fattree2:8x2", "torus:3x3", "dragonfly:2,2,1",
		"d3:3,3", "butterfly:2x3", "hypercube:4", "random:8,16,4"}
	for _, spec := range specs {
		tab := fabric(t, spec)
		hosts := tab.Net.Hosts()
		for seed := int64(0); seed < 6; seed++ {
			n := 2 + int(seed)
			m := randomMatrix(hosts, min(n, len(hosts)), 100+seed, int(seed)%3)
			p, err := build(tab, m, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			brute := bruteForce(p)
			res, err := Optimize(tab, m, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if res.Optimal && res.Cost != brute {
				t.Errorf("%s seed %d: optimal cost %d, brute force %d", spec, seed, res.Cost, brute)
			}
			if c, err := Cost(tab, m, res.Hosts); err != nil || c != res.Cost {
				t.Errorf("%s seed %d: reported cost %d, Cost says %d (%v)", spec, seed, res.Cost, c, err)
			}
			s := newSearch(p, m)
			s.push(nil, 0, s.pair[0])
			root := s.q.Pop()
			if best := checkBounds(t, s, root); best != brute {
				t.Errorf("%s seed %d: full tree's best %d, brute force %d", spec, seed, best, brute)
			}
		}
	}
}

// bruteForce is the cheapest of all n! placements.
func bruteForce(p *problem) int64 {
	perm := make([]int, p.n)
	for i := range perm {
		perm[i] = i
	}
	best := int64(math.MaxInt64)
	var walk func(k int)
	walk = func(k int) {
		if k == p.n {
			best = min(best, p.cost(perm))
			return
		}
		for i := k; i < p.n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			walk(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	walk(0)
	return best
}

// checkBounds expands nd with no incumbent, so every child is pushed, and
// recurses: it returns the best completion of nd's partial assignment and
// fails the test where a bound exceeds it.
func checkBounds(t *testing.T, s *search, nd item) int64 {
	t.Helper()
	s.best, s.bestCost = nil, math.MaxInt64
	s.expand(nd)
	best := s.bestCost // the one leaf, when nd places the last task
	if int(nd.depth) < s.p.n-1 {
		var children []item
		for s.q.Len() > 0 {
			children = append(children, s.q.Pop())
		}
		for _, c := range children {
			best = min(best, checkBounds(t, s, c))
		}
	}
	if nd.f > best {
		t.Errorf("depth %d: bound %d above best completion %d", nd.depth, nd.f, best)
	}
	return best
}

var placeFixture struct {
	once sync.Once
	tab  *routes.Table
	m    *workload.Matrix
	err  error
}

// reportPlacement is the placement a load report makes: fattree2:32x4, the
// 8 heaviest tasks of a seeded 0.4-load replay's measured matrix.
func reportPlacement(b *testing.B) (*routes.Table, *workload.Matrix) {
	f := &placeFixture
	f.once.Do(func() {
		res, err := genspec.Build("fattree2:32x4", nil)
		if err != nil {
			f.err = err
			return
		}
		if f.tab, f.err = routes.Compute(res.Net, routes.DefaultConfig()); f.err != nil {
			return
		}
		timing := simnet.DefaultTiming()
		plan := workload.NewPlan(res.Net, workload.PlanConfig{
			Pattern: workload.Uniform, Load: 0.4, MsgBytes: 512,
			Duration: 5 * time.Millisecond, ByteTime: timing.ByteTime, Seed: 1,
		})
		eng, err := loadsim.New(res.Net, f.tab, timing, 512)
		if err != nil {
			f.err = err
			return
		}
		if _, f.err = eng.Run(plan); f.err != nil {
			return
		}
		f.m = heaviestTasks(eng.Matrix(), 8)
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
	return f.tab, f.m
}

// heaviestTasks restricts m to its n highest-volume tasks (ties: host
// order), rows kept in host order, as sanload's placement phase does.
func heaviestTasks(m *workload.Matrix, n int) *workload.Matrix {
	idx := make([]int, len(m.Hosts))
	vol := make([]int64, len(m.Hosts))
	for i := range m.Hosts {
		idx[i] = i
		for j := range m.Hosts {
			vol[i] += m.Bytes[i][j] + m.Bytes[j][i]
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return vol[idx[a]] > vol[idx[b]] })
	keep := idx[:n]
	sort.Ints(keep)
	hosts := make([]topology.NodeID, n)
	for k, i := range keep {
		hosts[k] = m.Hosts[i]
	}
	sub := workload.NewMatrix(hosts)
	for a, i := range keep {
		for b, j := range keep {
			sub.Bytes[a][b] = m.Bytes[i][j]
		}
	}
	return sub
}

func benchOptimize(b *testing.B, optimize func(*routes.Table, *workload.Matrix, Config) (*Result, error)) {
	tab, m := reportPlacement(b)
	var res *Result
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = optimize(tab, m, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Expanded), "expanded/op")
}

// BenchmarkPlaceOptimize is the load report's placement search. Gated at
// 0.6x BenchmarkPlaceOptimizeReference in the same run and at 1000
// allocs/op (bench_gates.json); expanded/op must match the reference's.
func BenchmarkPlaceOptimize(b *testing.B) { benchOptimize(b, Optimize) }

// BenchmarkPlaceOptimizeReference is the search Optimize replaced, on the
// same input.
func BenchmarkPlaceOptimizeReference(b *testing.B) { benchOptimize(b, referenceOptimize) }
