package loadsim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sanmap/internal/eventq"
	"sanmap/internal/genspec"
	"sanmap/internal/obs"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

// inj, injLess, referenceInject and referenceRun are Engine.Run as it was
// while every replay merged the plan itself — a k-way merge on an
// eventq.Heap driving the walk, the registry updated worm by worm — kept
// verbatim as the oracle the merge-once, scan-per-engine replay is held to.
// The only edits: the queue is local (the engine no longer owns one),
// delivered and payload are derived by report, and the gauges report used
// to set are set here.

type inj struct {
	at   int64
	host int32
	seq  int32
}

func injLess(a, b inj) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.host != b.host {
		return a.host < b.host
	}
	return a.seq < b.seq
}

func (e *Engine) referenceInject(at int64, p int, payload int64) (int64, bool) {
	occupancy := int64(e.wormBytes[p]) * int64(e.timing.ByteTime)
	reset := int64(e.timing.BlockedPortReset)
	latency := int64(e.timing.SwitchLatency)
	arr := at
	wasDelayed := false
	for _, id := range e.hops[e.pairStart[p]:e.pairStart[p+1]] {
		if b := e.busyUntil[id]; b > arr {
			wait := b - arr
			if wait > reset {
				e.blocked++
				e.m.blocked.Inc()
				return 0, false
			}
			e.linkWait[id] += wait
			e.m.waitHist.Observe(time.Duration(wait))
			arr = b
			wasDelayed = true
		}
		e.busyUntil[id] = arr + occupancy
		e.linkBusy[id] += occupancy
		e.linkWorms[id]++
		arr += latency
	}
	if wasDelayed {
		e.delayed++
		e.m.delayed.Inc()
	}
	done := arr + occupancy
	e.pairBytes[p] += payload
	return done, true
}

func (e *Engine) referenceRun(plan *workload.Plan) (*Report, error) {
	e.reset(plan.TotalSends())
	e.latTally, e.waitTally = nil, nil // the reference mirrors worm by worm
	if len(plan.Hosts) > e.nh {
		return nil, fmt.Errorf("loadsim: plan has %d hosts, network %d", len(plan.Hosts), e.nh)
	}
	// sender[i] maps plan host i to its dense engine index.
	sender := make([]int32, len(plan.Hosts))
	for i, h := range plan.Hosts {
		if int(h) >= len(e.hidx) || e.hidx[h] < 0 {
			return nil, fmt.Errorf("loadsim: plan host %d not in network", h)
		}
		sender[i] = e.hidx[h]
	}
	q := eventq.New(injLess)
	for i := range plan.Hosts {
		if len(plan.Sends[i]) > 0 {
			q.Push(inj{at: int64(plan.Sends[i][0].At), host: int32(i), seq: 0})
		}
	}
	payload := int64(plan.MsgBytes)
	// A k-way merge of the per-host schedules: the queue holds each host's
	// next send, and the earliest is replaced in place by its successor.
	for q.Len() > 0 {
		v, _ := q.Peek()
		sends := plan.Sends[v.host]
		if int(v.seq+1) < len(sends) {
			q.Set(0, inj{at: int64(sends[v.seq+1].At), host: v.host, seq: v.seq + 1})
		} else {
			q.Pop()
		}
		s := sends[v.seq]
		e.sent++
		e.m.sent.Inc()
		di := e.hidx[s.Dst]
		if di < 0 {
			return nil, fmt.Errorf("loadsim: plan destination %d not in network", s.Dst)
		}
		p := int(sender[v.host])*e.nh + int(di)
		if !e.valid[p] {
			e.lost++
			e.m.lost.Inc()
			continue
		}
		done, alive := e.referenceInject(v.at, p, payload)
		if !alive {
			continue
		}
		e.m.delivered.Inc()
		e.lat = append(e.lat, done-v.at)
		e.m.latency.Observe(time.Duration(done - v.at))
		if done > e.makespan {
			e.makespan = done
		}
	}
	r := e.report(plan)
	var peakUtil, peakWait int64
	for _, ll := range r.Links {
		if ll.UtilPPM > peakUtil {
			peakUtil = ll.UtilPPM
		}
		if w := int64(ll.Wait); w > peakWait {
			peakWait = w
		}
	}
	e.m.peakUtil.Set(peakUtil)
	e.m.peakWait.Set(peakWait)
	e.m.makespan.Set(e.makespan)
	return r, nil
}

// dump renders a registry.
func dump(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// allWires lists every wire slot of net, for BusyOn over the lot.
func allWires(net *topology.Network) []int {
	out := make([]int, net.NumWireSlots())
	for i := range out {
		out[i] = i
	}
	return out
}

// sameReplay demands that two replays of one plan left the same outcome:
// equal Reports — every field, Links in order, the per-wire busy sums behind
// BusyOn — equal demand matrices and equal registry dumps.
func sameReplay(t *testing.T, name string, net *topology.Network,
	got, want *Report, gotEng, wantEng *Engine, gotReg, wantReg *obs.Registry) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: reports differ:\n got %+v\nwant %+v", name, got, want)
	}
	if g, w := got.BusyOn(allWires(net)), want.BusyOn(allWires(net)); g != w {
		t.Errorf("%s: BusyOn(all wires) %v, want %v", name, g, w)
	}
	if !reflect.DeepEqual(gotEng.Matrix(), wantEng.Matrix()) {
		t.Errorf("%s: demand matrices differ", name)
	}
	if g, w := dump(t, gotReg), dump(t, wantReg); g != w {
		t.Errorf("%s: registries differ:\n got %s\nwant %s", name, g, w)
	}
}

// againstReference replays plan through Run on one engine and through
// referenceRun on another and compares; after, if not nil, runs once both
// are compiled, before either replays.
func againstReference(t *testing.T, name string, net *topology.Network, tab *routes.Table,
	timing simnet.Timing, plan *workload.Plan, after func(a, b *Engine)) *Report {
	t.Helper()
	var engs [2]*Engine
	var regs [2]*obs.Registry
	for i := range engs {
		e, err := New(net, tab, timing, plan.MsgBytes)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = obs.NewRegistry()
		engs[i] = e.Instrument(regs[i])
	}
	if after != nil {
		after(engs[0], engs[1])
	}
	got, err := engs[0].Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engs[1].referenceRun(plan)
	if err != nil {
		t.Fatal(err)
	}
	sameReplay(t, name, net, got, want, engs[0], engs[1], regs[0], regs[1])
	return got
}

// TestRunMatchesReferenceRun holds the merged-schedule replay to the
// heap-driven one it replaced: over the 72 differential cells, over raw
// plans of all three patterns (every host's first send is at t=0, so each
// opens with a same-instant tie across all hosts), on a stale engine, and
// on hand-built plans whose outcome hangs on the (host, seq) tie-break.
func TestRunMatchesReferenceRun(t *testing.T) {
	differentialCells(t, func(c cell) {
		againstReference(t, c.name, c.net, c.tab, c.timing, c.plan, nil)
	})

	res, err := genspec.Build("fattree2:8x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	net := res.Net
	tab, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	timing := simnet.DefaultTiming()
	timing.BlockedPortReset = 4 * time.Microsecond
	for _, pat := range []workload.Pattern{workload.Uniform, workload.Hotspot, workload.Permutation} {
		plan := workload.NewPlan(net, workload.PlanConfig{
			Pattern: pat, Load: 0.6, MsgBytes: 512, Duration: 300 * time.Microsecond,
			ByteTime: timing.ByteTime, Seed: 5,
		})
		r := againstReference(t, pat.String(), net, tab, timing, plan, nil)
		if r.Blocked == 0 || r.Delayed == 0 {
			t.Errorf("%s: blocked=%d delayed=%d barely exercises the replay", pat, r.Blocked, r.Delayed)
		}
	}

	// Same-nanosecond sends on different hosts, twice over, and a host with
	// nothing to send. With a reset this short the first worm onto a shared
	// link lives and the next dies, so who delivers is the tie-break.
	hosts := net.Hosts()
	tied := &workload.Plan{MsgBytes: 512, Hosts: hosts, Sends: make([][]workload.Send, len(hosts))}
	for i := range hosts {
		if i == 3 {
			continue // the empty host
		}
		for k, at := range []time.Duration{0, 0, 700, 700, 701} {
			tied.Sends[i] = append(tied.Sends[i], workload.Send{At: at, Dst: hosts[(i*5+k*3+1)%len(hosts)]})
		}
	}
	timing.BlockedPortReset = time.Microsecond
	r := againstReference(t, "tied", net, tab, timing, tied, nil)
	if r.Blocked == 0 || r.Delivered == 0 {
		t.Errorf("tied: delivered=%d blocked=%d, the ties decide nothing", r.Delivered, r.Blocked)
	}

	// A stale engine: cut the busiest wire of the healthy replay and
	// Revalidate, so a share of the worms is lost.
	plan := workload.NewPlan(net, workload.PlanConfig{
		Pattern: workload.Uniform, Load: 0.4, MsgBytes: 512, Duration: 300 * time.Microsecond,
		ByteTime: timing.ByteTime, Seed: 9,
	})
	healthy := againstReference(t, "healthy", net, tab, simnet.DefaultTiming(), plan, nil)
	stale := againstReference(t, "stale", net, tab, simnet.DefaultTiming(), plan, func(a, b *Engine) {
		if err := net.RemoveWire(healthy.Links[0].Wire); err != nil {
			t.Fatal(err)
		}
		a.Revalidate()
		b.Revalidate()
	})
	if stale.Lost == 0 {
		t.Error("stale: no worm lost to the cut")
	}
}

// TestTieBreakDecidesDelivery is the smallest plan the (host, seq) order
// shows in: h0 and h1 send to h2 in the same nanosecond, and under a 1 µs
// reset the second onto the shared wire dies. The demand matrix says which.
func TestTieBreakDecidesDelivery(t *testing.T) {
	net, tab := line3(t)
	timing := simnet.DefaultTiming()
	timing.BlockedPortReset = time.Microsecond
	e, err := New(net, tab, timing, 512)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(plan2(net, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != 1 || r.Blocked != 1 {
		t.Fatalf("accounting: %+v", r)
	}
	m := e.Matrix()
	if m.Bytes[0][2] != 512 || m.Bytes[1][2] != 0 {
		t.Errorf("h0->h2 delivered %d bytes, h1->h2 %d: the lower host index goes first", m.Bytes[0][2], m.Bytes[1][2])
	}
}
