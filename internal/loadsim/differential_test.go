package loadsim

import (
	"fmt"
	"testing"
	"time"

	"sanmap/internal/connet"
	"sanmap/internal/desim"
	"sanmap/internal/genspec"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

// fates is what the two replays are compared on.
type fates struct{ delivered, blocked, delayed int64 }

func replayFlat(t *testing.T, net *topology.Network, tab *routes.Table, timing simnet.Timing, plan *workload.Plan) fates {
	t.Helper()
	e, err := New(net, tab, timing, plan.MsgBytes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lost != 0 {
		t.Fatalf("healthy table lost %d worms", r.Lost)
	}
	return fates{r.Delivered, r.Blocked, r.Delayed}
}

// replayConnet runs the plan as one desim process per host over the
// contended transport. Every route is valid, so Stats.Lost is contention
// kills alone and must equal the transport's own Blocked count.
func replayConnet(t *testing.T, net *topology.Network, tab *routes.Table, timing simnet.Timing, plan *workload.Plan) fates {
	t.Helper()
	eng := desim.New()
	cn := connet.New(net, simnet.PacketModel, timing)
	st := workload.SpawnPlan(eng, cn, tab, plan)
	eng.Run()
	if st.Lost != cn.Blocked {
		t.Fatalf("connet: Stats.Lost %d != Net.Blocked %d", st.Lost, cn.Blocked)
	}
	return fates{st.Delivered, cn.Blocked, cn.Delayed}
}

// spaced returns a copy of plan with every host's sends at least gap apart
// and no two sends anywhere at the same instant: a send inside gap of the
// host's previous kept one is dropped, and one that would share its
// nanosecond with an already kept send of another host moves to the next
// free one.
//
// The gap removes the one intended difference between the replays (see
// TestSourceModelDiffers): with a host's worms a full serialisation apart,
// neither its connet process nor its loadsim host link ever holds one back.
// The de-tie removes an accident: same-instant sends of different hosts run
// in (host, seq) order in loadsim and in wake order in desim, and on a
// shared link the order decides which of the two waits.
func spaced(plan *workload.Plan, gap time.Duration) *workload.Plan {
	out := *plan
	out.Sends = make([][]workload.Send, len(plan.Sends))
	taken := map[time.Duration]bool{}
	for i, sends := range plan.Sends {
		next := time.Duration(0)
		for _, s := range sends {
			if s.At < next {
				continue
			}
			for taken[s.At] {
				s.At++
			}
			taken[s.At] = true
			out.Sends[i] = append(out.Sends[i], s)
			next = s.At + gap
		}
	}
	return &out
}

// TestDifferentialConnet pins the drop-on-block link rule loadsim.inject
// shares with connet.send — wait behind a reservation, die when the wait
// exceeds BlockedPortReset, leave the earlier hops reserved — by replaying
// the same plans through both and demanding the same three counters. Under
// DefaultTiming nothing dies at these loads and equal fates would prove
// little, so the reset shrinks to a few worm times and the rule decides the
// fate of a large share of the worms in every cell.
func TestDifferentialConnet(t *testing.T) {
	base := simnet.DefaultTiming()
	for _, gen := range []string{"fattree2:16x2,8", "fattree2:8x2", "torus:4x4", "now-c"} {
		res, err := genspec.Build(gen, nil)
		if err != nil {
			t.Fatal(err)
		}
		net := res.Net
		tab, err := routes.Compute(net, routes.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// The longest worm any pair sends: no route transits more switches
		// than the fabric has.
		gap := time.Duration(simnet.MessageBytes(net.NumSwitches())+512) * base.ByteTime
		for _, load := range []float64{0.4, 0.9} {
			for seed := uint64(1); seed <= 3; seed++ {
				plan := spaced(workload.NewPlan(net, workload.PlanConfig{
					Pattern:  workload.Uniform,
					Load:     load,
					MsgBytes: 512,
					Duration: time.Millisecond,
					ByteTime: base.ByteTime,
					Seed:     seed,
				}), gap)
				for _, reset := range []time.Duration{2, 4, 8} {
					timing := base
					timing.BlockedPortReset = reset * time.Microsecond
					flat := replayFlat(t, net, tab, timing, plan)
					con := replayConnet(t, net, tab, timing, plan)
					cell := fmt.Sprintf("%s load %.1f seed %d reset %dµs", gen, load, seed, reset)
					if flat != con {
						t.Errorf("%s: loadsim %+v, connet %+v", cell, flat, con)
					}
					if flat.blocked*50 < int64(plan.TotalSends()) || flat.delayed == 0 {
						t.Errorf("%s: %+v of %d worms barely exercises the rule", cell, flat, plan.TotalSends())
					}
					t.Logf("%s: %+v of %d", cell, flat, plan.TotalSends())
				}
			}
		}
	}
}

// TestSourceModelDiffers pins the one place the two replays are meant to
// disagree. A host that schedules its second worm before the first has left
// its interface is an open-loop source in loadsim — the worm queues on the
// host's own link like on any other, and a short reset kills it there — and
// a closed-loop one in connet, whose sender sleeps out its own serialisation
// in SendWorm and injects the second worm late onto a free link.
func TestSourceModelDiffers(t *testing.T) {
	net, tab := line3(t)
	h2 := net.Lookup("h2")
	plan := &workload.Plan{
		MsgBytes: 512,
		Hosts:    []topology.NodeID{net.Lookup("h0")},
		Sends:    [][]workload.Send{{{At: 0, Dst: h2}, {At: 100, Dst: h2}}},
	}
	for _, tc := range []struct {
		reset     time.Duration // the second worm's wait is ~3.2 µs
		flat, con fates
	}{
		{simnet.DefaultTiming().BlockedPortReset, fates{2, 0, 1}, fates{2, 0, 0}},
		{time.Microsecond, fates{1, 1, 0}, fates{2, 0, 0}},
	} {
		timing := simnet.DefaultTiming()
		timing.BlockedPortReset = tc.reset
		if got := replayFlat(t, net, tab, timing, plan); got != tc.flat {
			t.Errorf("reset %v: loadsim %+v, want %+v", tc.reset, got, tc.flat)
		}
		if got := replayConnet(t, net, tab, timing, plan); got != tc.con {
			t.Errorf("reset %v: connet %+v, want %+v", tc.reset, got, tc.con)
		}
	}
}
