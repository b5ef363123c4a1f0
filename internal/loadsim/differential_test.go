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

// fates is what the replays are compared on: the three counters, and the
// reservation horizon the link rule left on every directed link, indexed
// like Engine.busyUntil.
type fates struct {
	delivered, blocked, delayed int64
	busyUntil                   []int64
}

func (f fates) counters() [3]int64 { return [3]int64{f.delivered, f.blocked, f.delayed} }

// diff names the first difference between two replays' fates, or "".
func (f fates) diff(g fates) string {
	if f.counters() != g.counters() {
		return fmt.Sprintf("counters %v vs %v", f.counters(), g.counters())
	}
	for id := range f.busyUntil {
		if f.busyUntil[id] != g.busyUntil[id] {
			return fmt.Sprintf("directed link %d busy until %d vs %d", id, f.busyUntil[id], g.busyUntil[id])
		}
	}
	return ""
}

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
	return fates{r.Delivered, r.Blocked, r.Delayed, append([]int64(nil), e.busyUntil...)}
}

// replayConnet runs the plan over the contended transport, with spawn
// starting the sources: workload.SpawnPlan's callbacks, or the reference
// processes they replaced. Every route is valid, so Stats.Lost is
// contention kills alone and must equal the transport's own Blocked count.
func replayConnet(t *testing.T, net *topology.Network, tab *routes.Table, timing simnet.Timing, plan *workload.Plan,
	spawn func(*desim.Engine, *connet.Net, *routes.Table, *workload.Plan) *workload.Stats) fates {
	t.Helper()
	eng := desim.New()
	cn := connet.New(net, simnet.PacketModel, timing)
	st := spawn(eng, cn, tab, plan)
	eng.Run()
	if st.Lost != cn.Blocked || st.Sent != cn.Worms || st.Sent != st.Delivered+st.Lost {
		t.Fatalf("connet: Stats %+v, Net Worms %d Blocked %d", *st, cn.Worms, cn.Blocked)
	}
	busy := make([]int64, 2*net.NumWireSlots())
	for id := range busy {
		busy[id] = int64(cn.BusyUntil(simnet.DirectedHop{Wire: id / 2, FromA: id%2 == 0}))
	}
	return fates{st.Delivered, cn.Blocked, cn.Delayed, busy}
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

// cell is one point of the differential grid.
type cell struct {
	name   string
	net    *topology.Network
	tab    *routes.Table
	timing simnet.Timing
	plan   *workload.Plan
}

// differentialCells runs f over the 72-cell grid: four fabrics, two loads,
// three seeds, three reset timeouts. Under DefaultTiming nothing dies at
// these loads and equal fates would prove little, so the reset shrinks to a
// few worm times and the link rule decides the fate of a large share of the
// worms in every cell.
func differentialCells(t *testing.T, f func(cell)) {
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
					f(cell{
						name: fmt.Sprintf("%s load %.1f seed %d reset %dµs", gen, load, seed, reset),
						net:  net, tab: tab, timing: timing, plan: plan,
					})
				}
			}
		}
	}
}

// TestDifferentialConnet pins the drop-on-block link rule loadsim.inject
// shares with connet.send — wait behind a reservation, die when the wait
// exceeds BlockedPortReset, leave the earlier hops reserved — by replaying
// the same plans through both and demanding the same three counters and the
// same final reservation horizon on every directed link.
func TestDifferentialConnet(t *testing.T) {
	cells := 0
	differentialCells(t, func(c cell) {
		cells++
		flat := replayFlat(t, c.net, c.tab, c.timing, c.plan)
		con := replayConnet(t, c.net, c.tab, c.timing, c.plan, workload.SpawnPlan)
		if d := flat.diff(con); d != "" {
			t.Errorf("%s: loadsim vs connet: %s", c.name, d)
		}
		if flat.blocked*50 < int64(c.plan.TotalSends()) || flat.delayed == 0 {
			t.Errorf("%s: %v of %d worms barely exercises the rule", c.name, flat.counters(), c.plan.TotalSends())
		}
		t.Logf("%s: %v of %d", c.name, flat.counters(), c.plan.TotalSends())
	})
	if cells != 72 {
		t.Errorf("grid has %d cells, want 72", cells)
	}
}

// TestCallbackReplayMatchesProcessReplay holds workload.SpawnPlan's
// callback sources to the process-per-host replay they replaced
// (spawnPlanProcesses): over the same grid, the same stats, transport
// counters and per-link reservation horizons.
func TestCallbackReplayMatchesProcessReplay(t *testing.T) {
	differentialCells(t, func(c cell) {
		cb := replayConnet(t, c.net, c.tab, c.timing, c.plan, workload.SpawnPlan)
		proc := replayConnet(t, c.net, c.tab, c.timing, c.plan, spawnPlanProcesses)
		if d := cb.diff(proc); d != "" {
			t.Errorf("%s: callbacks vs processes: %s", c.name, d)
		}
	})
}

// TestSourceModelDiffers pins the one place the two replays are meant to
// disagree. A host that schedules its second worm before the first has left
// its interface queues it on the host's own link in loadsim, like on any
// other — and a short reset kills it there — while a connet source holds
// the second worm back until its interface is free (connet.Inject) and
// injects it late onto a free link. The process replay agrees with the
// callbacks here too.
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
		flat, con [3]int64
	}{
		{simnet.DefaultTiming().BlockedPortReset, [3]int64{2, 0, 1}, [3]int64{2, 0, 0}},
		{time.Microsecond, [3]int64{1, 1, 0}, [3]int64{2, 0, 0}},
	} {
		timing := simnet.DefaultTiming()
		timing.BlockedPortReset = tc.reset
		if got := replayFlat(t, net, tab, timing, plan).counters(); got != tc.flat {
			t.Errorf("reset %v: loadsim %v, want %v", tc.reset, got, tc.flat)
		}
		if got := replayConnet(t, net, tab, timing, plan, workload.SpawnPlan).counters(); got != tc.con {
			t.Errorf("reset %v: connet %v, want %v", tc.reset, got, tc.con)
		}
		if got := replayConnet(t, net, tab, timing, plan, spawnPlanProcesses).counters(); got != tc.con {
			t.Errorf("reset %v: connet processes %v, want %v", tc.reset, got, tc.con)
		}
	}
}
