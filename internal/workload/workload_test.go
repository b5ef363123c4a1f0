package workload

import (
	"math"
	"testing"
	"time"

	"sanmap/internal/cluster"
	"sanmap/internal/connet"
	"sanmap/internal/desim"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
)

// replayC replays the mix, materialised to the given horizon, over an
// otherwise idle subcluster C.
func replayC(t *testing.T, cfg PlanConfig) *Stats {
	t.Helper()
	sys := cluster.CConfig(nil)
	tab, err := routes.Compute(sys.Net, routes.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	timing := simnet.DefaultTiming()
	cfg.ByteTime = timing.ByteTime
	eng := desim.New()
	cn := connet.New(sys.Net, simnet.CircuitModel, timing)
	stats := SpawnPlan(eng, cn, tab, NewPlan(sys.Net, cfg))
	eng.Run()
	return stats
}

// TestTrafficDelivers: on an idle network, routed traffic worms deliver.
func TestTrafficDelivers(t *testing.T) {
	stats := replayC(t, PlanConfig{
		Pattern:  Uniform,
		Load:     0.05,
		MsgBytes: 256,
		Duration: 2 * time.Millisecond,
		Seed:     1,
	})
	if stats.Sent == 0 {
		t.Fatal("no traffic sent")
	}
	if frac := float64(stats.Delivered) / float64(stats.Sent); frac < 0.95 {
		t.Errorf("delivery fraction %.2f at light load; want near 1 (%+v)", frac, *stats)
	}
}

// TestMapUnderLightTraffic: at light load the map is usually still exact —
// the paper's §7 observation ("the algorithm can oftentimes correctly map
// the network even in the face of heavy application cross-traffic").
func TestMapUnderLightTraffic(t *testing.T) {
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	depth := sys.Net.DepthBound(h0)
	m, _, took, err := MapUnderTraffic(sys.Net, h0,
		simnet.CircuitModel, simnet.DefaultTiming(),
		mapper.DefaultConfig(depth), PlanConfig{
			Pattern:  Uniform,
			Load:     0.01,
			MsgBytes: 256,
			Seed:     2,
		})
	if err != nil {
		t.Fatalf("map under traffic: %v", err)
	}
	core, _ := sys.Net.Core()
	sim := isomorph.Compare(m.Network, core)
	if sim.Score() < 0.9 {
		t.Errorf("light-load map score %.2f; want ≥0.9 (%+v)", sim.Score(), sim)
	}
	if took == 0 {
		t.Error("mapping took no virtual time")
	}
}

// TestAccuracyDegradesWithLoad: heavier cross-traffic must not improve
// accuracy, and heavy load should cost mapping time. The heavy point sits
// just past the knee (exact maps through 0.30, see sanexp -fig crosstraffic):
// a third of every host link's bandwidth.
func TestAccuracyDegradesWithLoad(t *testing.T) {
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	depth := sys.Net.DepthBound(h0)
	core, _ := sys.Net.Core()
	var scores []float64
	var times []time.Duration
	for _, load := range []float64{0.001, 0.33} {
		m, _, took, err := MapUnderTraffic(sys.Net, h0,
			simnet.CircuitModel, simnet.DefaultTiming(),
			mapper.DefaultConfig(depth), PlanConfig{
				Pattern:  Uniform,
				Load:     load,
				MsgBytes: 4096,
				Seed:     3,
			})
		if err != nil {
			// A failed export under heavy traffic counts as accuracy 0.
			scores = append(scores, 0)
			times = append(times, took)
			continue
		}
		scores = append(scores, isomorph.Compare(m.Network, core).Score())
		times = append(times, took)
	}
	if scores[1] > scores[0] {
		t.Errorf("accuracy improved with load: %.2f -> %.2f", scores[0], scores[1])
	}
	if times[1] <= times[0] {
		t.Errorf("heavy load cost no mapping time: %v -> %v", times[0], times[1])
	}
	t.Logf("load sweep: light score=%.2f time=%v, heavy score=%.2f time=%v",
		scores[0], times[0], scores[1], times[1])
}

// TestLoadIsOfferedLoad: Load is the offered load per host as a fraction
// of link bandwidth, live as in a plan — payload bytes sent, over what the
// hosts' links could have carried while the mapper ran. (The retired
// process-per-host sender slept out each worm and then a whole gap, and
// offered Load/(1+Load).)
func TestLoadIsOfferedLoad(t *testing.T) {
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	depth := sys.Net.DepthBound(h0)
	timing := simnet.DefaultTiming()
	const msgBytes = 512
	for _, load := range []float64{0.1, 0.3} {
		_, stats, took, err := MapUnderTraffic(sys.Net, h0, simnet.CircuitModel, timing,
			mapper.DefaultConfig(depth), PlanConfig{
				Pattern:  Uniform,
				Load:     load,
				MsgBytes: msgBytes,
				Seed:     5,
			})
		if err != nil {
			t.Fatalf("load %.1f: %v", load, err)
		}
		capacity := float64(sys.Net.NumHosts()) * float64(took) / float64(timing.ByteTime)
		got := float64(stats.Sent*msgBytes) / capacity
		if math.Abs(got-load) > 0.05*load {
			t.Errorf("load %.1f: measured offered load %.4f (%d worms in %v), want within 5%%",
				load, got, stats.Sent, took)
		}
		t.Logf("load %.1f: measured %.4f over %v", load, got, took)
	}
}

// TestLivePrefixOfPlan: live cross-traffic and a materialised plan are one
// schedule. The first N sends a live host draws — no horizon, whatever
// Duration says — are the plan's first N for that host, for every pattern.
func TestLivePrefixOfPlan(t *testing.T) {
	net := cluster.CConfig(nil).Net
	for _, pat := range []Pattern{Uniform, Hotspot, Permutation} {
		cfg := planConfig(pat, 11)
		plan := NewPlan(net, cfg)
		if plan.TotalSends() < 10*len(plan.Hosts) {
			t.Fatalf("%v: plan of %d sends proves little", pat, plan.TotalSends())
		}
		horizon := cfg.Duration
		cfg.Duration = 0
		for i, live := range newStreams(net.Hosts(), cfg) {
			for k, want := range plan.Sends[i] {
				if got := live.next(); got != want {
					t.Fatalf("%v host %d send %d: live %+v, plan %+v", pat, i, k, got, want)
				}
			}
			if beyond := live.next(); beyond.At < horizon {
				t.Errorf("%v host %d: plan stopped before its horizon, live goes on at %v", pat, i, beyond.At)
			}
		}
	}
}

// TestPatterns: all patterns run and account consistently.
func TestPatterns(t *testing.T) {
	for _, pat := range []Pattern{Uniform, Hotspot, Permutation} {
		stats := replayC(t, PlanConfig{
			Pattern:  pat,
			Load:     0.2,
			MsgBytes: 512,
			Duration: time.Millisecond,
			Seed:     4,
		})
		if stats.Sent != stats.Delivered+stats.Lost {
			t.Errorf("%v: accounting: %+v", pat, *stats)
		}
		if stats.Sent == 0 {
			t.Errorf("%v: no traffic", pat)
		}
	}
}
