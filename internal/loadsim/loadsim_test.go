package loadsim

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"sanmap/internal/genspec"
	"sanmap/internal/obs"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

// line3 builds h0,h1 -> s0 -- s1 <- h2: two senders sharing one inter-switch
// wire, small enough to hand-compute every reservation.
func line3(t *testing.T) (*topology.Network, *routes.Table) {
	t.Helper()
	net := &topology.Network{}
	h0, h1, h2 := net.AddHost("h0"), net.AddHost("h1"), net.AddHost("h2")
	s0, s1 := net.AddSwitch("s0"), net.AddSwitch("s1")
	for _, c := range [][2]topology.NodeID{{h0, s0}, {h1, s0}, {h2, s1}, {s0, s1}} {
		if _, _, _, err := net.ConnectFree(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return net, tab
}

// hopWire returns the k-th wire on the table's path between two named hosts.
func hopWire(t *testing.T, net *topology.Network, tab *routes.Table, src, dst string, k int) int {
	t.Helper()
	p, _ := tab.WirePath(net.Lookup(src), net.Lookup(dst))
	w := p.Walk()
	for i := 0; i <= k; i++ {
		if !w.Next() {
			t.Fatalf("%s -> %s has %d wires, want a %d-th", src, dst, p.Len(), k)
		}
	}
	return w.Wire()
}

// plan2 schedules h0 and h1 each sending one worm to h2, offset ns apart.
func plan2(net *topology.Network, offset time.Duration) *workload.Plan {
	h2 := net.Lookup("h2")
	return &workload.Plan{
		MsgBytes: 512,
		Hosts:    []topology.NodeID{net.Lookup("h0"), net.Lookup("h1")},
		Sends: [][]workload.Send{
			{{At: 0, Dst: h2}},
			{{At: offset, Dst: h2}},
		},
	}
}

// TestHandComputedContention pins the reservation semantics against values
// worked out by hand from the timing constants — the same arithmetic
// connet.send performs, so a divergence here means the flat replay no
// longer mirrors the contended transport.
func TestHandComputedContention(t *testing.T) {
	net, tab := line3(t)
	timing := simnet.DefaultTiming()
	e, err := New(net, tab, timing, 512)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(plan2(net, 100))
	if err != nil {
		t.Fatal(err)
	}
	// Worm bytes: envelope 4 + 2 routing flits (two transited switches) +
	// payload tag 16 + 512 payload = 534; occupancy 534×ByteTime.
	occ := 534 * timing.ByteTime
	lat := timing.SwitchLatency
	// Worm A (h0 at t=0): three uncontended hops.
	wantA := 3*lat + occ
	// Worm B (h1 at t=100ns): waits for A's s0->s1 reservation, which ends
	// at lat+occ; then the s1->h2 link frees exactly as B's head arrives.
	wantB := (lat + occ) + 2*lat + occ - 100
	if r.Sent != 2 || r.Delivered != 2 || r.Blocked != 0 || r.Lost != 0 {
		t.Fatalf("accounting: %+v", r)
	}
	if r.Delayed != 1 {
		t.Errorf("delayed = %d, want 1", r.Delayed)
	}
	if r.P50 != wantA || r.MaxLatency != wantB {
		t.Errorf("latency p50=%v max=%v, want %v / %v", r.P50, r.MaxLatency, wantA, wantB)
	}
	if want := (wantA + wantB) / 2; r.Mean != want {
		t.Errorf("mean latency %v, want %v", r.Mean, want)
	}
	if want := 100 + wantB; r.Makespan != want {
		t.Errorf("makespan %v, want %v", r.Makespan, want)
	}
	// Both worms crossed the shared s0--s1 wire once each.
	shared := hopWire(t, net, tab, "h0", "h2", 1)
	if got := r.BusyOn([]int{shared}); got != 2*occ {
		t.Errorf("BusyOn(shared) = %v, want %v", got, 2*occ)
	}
	if !r.DeadlockFree {
		t.Error("tree table reported deadlock-prone")
	}
}

// TestForwardResetKill: with a tiny blocked-port reset, the waiting worm is
// destroyed — and its first-hop reservation must persist, as the hardware
// leaves the killed worm's flits strung through upstream switches.
func TestForwardResetKill(t *testing.T) {
	net, tab := line3(t)
	timing := simnet.DefaultTiming()
	timing.BlockedPortReset = time.Microsecond // < the ~3.2µs occupancy wait
	e, err := New(net, tab, timing, 512)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(plan2(net, 100))
	if err != nil {
		t.Fatal(err)
	}
	if r.Sent != 2 || r.Delivered != 1 || r.Blocked != 1 {
		t.Fatalf("accounting: %+v", r)
	}
	// The killed worm still reserved h1->s0 before dying at s0->s1.
	first := hopWire(t, net, tab, "h1", "h2", 0)
	found := false
	for _, ll := range r.Links {
		if ll.Wire == first && ll.Worms == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("killed worm's first-hop reservation missing from links: %+v", r.Links)
	}
}

// TestStaleTableLosses: cutting a wire and Revalidating flips routes over it
// to lost, without touching surviving routes.
func TestStaleTableLosses(t *testing.T) {
	net, tab := line3(t)
	e, err := New(net, tab, simnet.DefaultTiming(), 512)
	if err != nil {
		t.Fatal(err)
	}
	shared := hopWire(t, net, tab, "h0", "h2", 1) // the s0--s1 wire both routes need
	if err := net.RemoveWire(shared); err != nil {
		t.Fatal(err)
	}
	e.Revalidate()
	r, err := e.Run(plan2(net, 100))
	if err != nil {
		t.Fatal(err)
	}
	if r.Sent != 2 || r.Lost != 2 || r.Delivered != 0 {
		t.Fatalf("stale accounting: %+v", r)
	}
	if got := r.BusyOn([]int{shared}); got != 0 {
		t.Errorf("lost worms reserved the cut wire: %v", got)
	}
}

// TestDeterministicReplay: two engines built independently over two builds
// of the same fabric replay one plan to byte-identical reports, and a
// second Run on the same engine matches too.
func TestDeterministicReplay(t *testing.T) {
	render := func() []byte {
		res, err := genspec.Build("fattree2:4x2", nil)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := routes.Compute(res.Net, routes.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		plan := workload.NewPlan(res.Net, workload.PlanConfig{
			Pattern:  workload.Uniform,
			Load:     0.3,
			MsgBytes: 256,
			Duration: 200 * time.Microsecond,
			ByteTime: simnet.DefaultTiming().ByteTime,
			Seed:     7,
		})
		e, err := New(res.Net, tab, simnet.DefaultTiming(), plan.MsgBytes)
		if err != nil {
			t.Fatal(err)
		}
		e.Instrument(obs.NewRegistry())
		var bufs [2]bytes.Buffer
		for i := range bufs {
			r, err := e.Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.WriteText(&bufs[i], res.Net, 0); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
			t.Fatal("same engine, same plan, different reports")
		}
		return bufs[0].Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Errorf("independent builds diverge:\n%s\n--- vs ---\n%s", a, b)
	}
	if len(a) == 0 || !bytes.Contains(a, []byte("worms sent=")) {
		t.Errorf("report looks empty: %q", a)
	}
}

// TestInjectZeroAlloc guards the hot loop: walking a worm through the
// reservations must not allocate, instrumented or not.
func TestInjectZeroAlloc(t *testing.T) {
	net, tab := line3(t)
	e, err := New(net, tab, simnet.DefaultTiming(), 512)
	if err != nil {
		t.Fatal(err)
	}
	e.Instrument(obs.NewRegistry())
	p := 0*e.nh + 2 // h0 -> h2
	var at int64
	if avg := testing.AllocsPerRun(1000, func() {
		at += int64(time.Millisecond)
		e.inject(at, p, 512)
	}); avg != 0 {
		t.Errorf("inject allocates %.1f per worm", avg)
	}
}

// TestScanZeroAlloc guards the replay loop: scanning a merged schedule into
// the preallocated accumulators must not allocate, instrumented or not.
func TestScanZeroAlloc(t *testing.T) {
	net, tab := line3(t)
	e, err := New(net, tab, simnet.DefaultTiming(), 512)
	if err != nil {
		t.Fatal(err)
	}
	e.Instrument(obs.NewRegistry())
	plan := plan2(net, 100)
	sched := plan.Merge()
	sender := []int32{0, 1}
	e.reset(len(sched))
	if avg := testing.AllocsPerRun(1000, func() {
		e.lat = e.lat[:0]
		if bad := e.scan(sched, sender, 512); bad >= 0 {
			t.Fatalf("injection %d rejected", bad)
		}
	}); avg != 0 {
		t.Errorf("scan allocates %.1f per schedule", avg)
	}
}

// sameSlice reports whether two slices start at the same element, counting
// an emptied slice by the array it still holds.
func sameSlice[T any](a, b []T) bool {
	a, b = a[:cap(a)], b[:cap(b)]
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestEngineCopySharesRoutesNotState: a copy reads the source's compiled
// routes and owns everything a replay or a Revalidate writes.
func TestEngineCopySharesRoutesNotState(t *testing.T) {
	net, tab := line3(t)
	src, err := New(net, tab, simnet.DefaultTiming(), 512)
	if err != nil {
		t.Fatal(err)
	}
	plan := plan2(net, 100)
	want, err := src.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	cp := src.Copy()
	if _, err := cp.Run(plan); err != nil {
		t.Fatal(err)
	}
	if !sameSlice(cp.pairStart, src.pairStart) || !sameSlice(cp.hops, src.hops) ||
		!sameSlice(cp.wormBytes, src.wormBytes) || !sameSlice(cp.wires, src.wires) {
		t.Error("copy recompiled or duplicated the routes")
	}
	if sameSlice(cp.valid, src.valid) || sameSlice(cp.busyUntil, src.busyUntil) ||
		sameSlice(cp.linkBusy, src.linkBusy) || sameSlice(cp.linkWorms, src.linkWorms) ||
		sameSlice(cp.linkWait, src.linkWait) || sameSlice(cp.pairBytes, src.pairBytes) ||
		sameSlice(cp.lat, src.lat) || sameSlice(cp.latScratch, src.latScratch) ||
		sameSlice(cp.lat, src.latScratch) || sameSlice(cp.latScratch, src.lat) {
		t.Error("copy shares replay state with its source")
	}

	// The copy goes stale; the source must not notice, before or after the
	// copy replays.
	if err := net.RemoveWire(hopWire(t, net, tab, "h0", "h2", 1)); err != nil {
		t.Fatal(err)
	}
	cp.Revalidate()
	stale, err := cp.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Lost != 2 {
		t.Errorf("revalidated copy lost %d worms, want 2", stale.Lost)
	}
	if got := src.Matrix().Bytes[0][2]; got != 512 {
		t.Errorf("source's matrix reads %d bytes h0->h2 after the copy's replay, want 512", got)
	}
	again, err := src.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Errorf("source replays differently after its copy was revalidated:\n got %+v\nwant %+v", again, want)
	}
}

// TestWriteTextSurvivesCut: a report names its links from what the engine
// compiled, so it renders the same after a listed wire is gone.
func TestWriteTextSurvivesCut(t *testing.T) {
	res, err := genspec.Build("fattree2:4x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	net := res.Net
	tab, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	timing := simnet.DefaultTiming()
	e, err := New(net, tab, timing, 256)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(workload.NewPlan(net, workload.PlanConfig{
		Pattern: workload.Uniform, Load: 0.3, MsgBytes: 256,
		Duration: 200 * time.Microsecond, ByteTime: timing.ByteTime, Seed: 7,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var before, after bytes.Buffer
	if err := r.WriteText(&before, net, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.RemoveWire(r.Links[0].Wire); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&after, net, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("rendering changed with the cut:\n--- before ---\n%s--- after ---\n%s", before.Bytes(), after.Bytes())
	}
}

// TestRunAllMatchesSequential: RunAll on a healthy, a healed and a stale
// engine sharing one registry returns what three Runs on fresh engines
// return and leaves the registry they leave — in argument order, however
// the replays finish. The stale engine loses most of its worms, so it
// finishes first though it is started last: mirrors folded in completion
// order would leave the gauges on another engine's values.
func TestRunAllMatchesSequential(t *testing.T) {
	res, err := genspec.Build("fattree2:8x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	net := res.Net
	timing := simnet.DefaultTiming()
	plan := workload.NewPlan(net, workload.PlanConfig{
		Pattern: workload.Uniform, Load: 0.5, MsgBytes: 512,
		Duration: 2 * time.Millisecond, ByteTime: timing.ByteTime, Seed: 3,
	})
	before, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := New(net, before, timing, plan.MsgBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Cut one uplink of every leaf switch but the first: the stale table
	// loses the routes over them, the healed one detours.
	cut := map[topology.NodeID]bool{}
	net.WiresIndexed(func(idx int, w topology.Wire) {
		if net.KindOf(w.A.Node) != topology.SwitchNode || net.KindOf(w.B.Node) != topology.SwitchNode ||
			cut[w.A.Node] || cut[w.B.Node] {
			return
		}
		cut[w.A.Node], cut[w.B.Node] = true, true
		if err := net.RemoveWire(idx); err != nil {
			t.Fatal(err)
		}
	})
	after, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// engines builds the three on one registry, from scratch.
	engines := func() ([]*Engine, *obs.Registry) {
		reg := obs.NewRegistry()
		healed, err := New(net, after, timing, plan.MsgBytes)
		if err != nil {
			t.Fatal(err)
		}
		h := healthy.Copy().Instrument(reg)
		stale := h.Copy()
		stale.Revalidate()
		return []*Engine{h, healed.Instrument(reg), stale}, reg
	}
	render := func(reps []*Report) []byte {
		var buf bytes.Buffer
		for _, r := range reps {
			if err := r.WriteText(&buf, net, 0); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	seq, seqReg := engines()
	want := make([]*Report, len(seq))
	for i, e := range seq {
		if want[i], err = e.Run(plan); err != nil {
			t.Fatal(err)
		}
	}
	if want[2].Lost*2 < want[2].Sent || want[1].Lost != 0 || want[0].Makespan == want[2].Makespan {
		t.Fatalf("fixture: stale lost %d of %d, healed lost %d, makespans %v / %v",
			want[2].Lost, want[2].Sent, want[1].Lost, want[0].Makespan, want[2].Makespan)
	}
	for rep := 0; rep < 20; rep++ {
		all, reg := engines()
		got, err := RunAll(plan, all...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("repetition %d: RunAll's reports differ from three Runs'", rep)
		}
		if !bytes.Equal(render(got), render(want)) {
			t.Fatalf("repetition %d: renderings differ", rep)
		}
		if g, w := dump(t, reg), dump(t, seqReg); g != w {
			t.Fatalf("repetition %d: shared registry differs:\n got %s\nwant %s", rep, g, w)
		}
		for i, e := range all {
			if !reflect.DeepEqual(e.Matrix(), seq[i].Matrix()) {
				t.Fatalf("repetition %d: engine %d's demand matrix differs", rep, i)
			}
		}
	}
}

// TestRunAllStopsAtFirstError: a plan one engine cannot replay fails the
// call with that engine's error, and engines before it have mirrored.
func TestRunAllStopsAtFirstError(t *testing.T) {
	net, tab := line3(t)
	small := &topology.Network{}
	a, b, s := small.AddHost("a"), small.AddHost("b"), small.AddSwitch("s")
	for _, h := range []topology.NodeID{a, b} {
		if _, _, _, err := small.ConnectFree(h, s); err != nil {
			t.Fatal(err)
		}
	}
	smallTab, err := routes.Compute(small, routes.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ok, err := New(net, tab, simnet.DefaultTiming(), 512)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := New(small, smallTab, simnet.DefaultTiming(), 512)
	if err != nil {
		t.Fatal(err)
	}
	// line3's h2 is node 2, which is the switch on the two-host network.
	reps, err := RunAll(plan2(net, 100), ok.Instrument(reg), bad.Instrument(reg))
	if err == nil || reps != nil {
		t.Fatalf("RunAll = %v, %v; want the second engine's error", reps, err)
	}
	if got := reg.Counter("load.worms.sent").Value(); got != 2 {
		t.Errorf("load.worms.sent = %d after the failed call, want the first engine's 2", got)
	}
}

// referencePercentiles is report's latency summary as it was computed
// before the radix sort: slices.Sort, then the same ranks.
func referencePercentiles(lat []int64) [5]time.Duration {
	s := slices.Clone(lat)
	slices.Sort(s)
	n := len(s)
	var sum int64
	for _, v := range s {
		sum += v
	}
	pct := func(p int) time.Duration {
		i := (n*p + 99) / 100
		if i > 0 {
			i--
		}
		return time.Duration(s[i])
	}
	return [5]time.Duration{pct(50), pct(90), pct(99), time.Duration(sum / int64(n)), time.Duration(s[n-1])}
}

// TestReportPercentilesMatchSort: the radix-sorted latency summary equals
// slices.Sort's on random latencies thick with duplicates and zeros, from a
// single worm up to spreads that need every pass, on one engine whose
// scratch grows and shrinks between runs.
func TestReportPercentilesMatchSort(t *testing.T) {
	net, tab := line3(t)
	e, err := New(net, tab, simnet.DefaultTiming(), 512)
	if err != nil {
		t.Fatal(err)
	}
	plan := plan2(net, 100)
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n    int
		span int64
	}{{1, 1000}, {1, 0}, {2, 0}, {3, 5}, {100, 1}, {5000, 1 << 20}, {20000, 1 << 40}, {777, 1 << 33}, {3, 1 << 61}} {
		lat := make([]int64, tc.n)
		for i := range lat {
			switch rng.Intn(4) {
			case 0: // zero
			case 1:
				lat[i] = lat[rng.Intn(i+1)]
			default:
				lat[i] = rng.Int63n(tc.span + 1)
			}
		}
		e.lat = append(e.lat[:0], lat...)
		r := e.report(plan)
		got := [5]time.Duration{r.P50, r.P90, r.P99, r.Mean, r.MaxLatency}
		if want := referencePercentiles(lat); got != want {
			t.Errorf("%d latencies over %d ns: p50/p90/p99/mean/max %v, want %v", tc.n, tc.span, got, want)
		}
	}
}
