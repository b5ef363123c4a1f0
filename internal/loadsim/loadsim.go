package loadsim

import (
	"fmt"
	"time"

	"sanmap/internal/eventq"
	"sanmap/internal/obs"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

// linkID names one directed link occupancy: wire index doubled, plus one
// for the B→A direction. It indexes every per-link accumulator array.
type linkID = int32

// Engine replays workload plans over a frozen route table with connet's
// link-reservation fidelity, flattened for throughput: routes are
// precompiled into directed-hop arrays once, and the per-worm walk touches
// only preallocated slices — no goroutines, no channels, no maps. The same
// Engine can replay many plans; accumulators reset at each Run.
//
// An Engine snapshots its route table at New/Revalidate time. After the
// underlying network mutates (link cuts), Revalidate re-checks each
// compiled route against the live wires: traffic on broken routes counts
// as lost, which is exactly the "stale table after a fault, before route
// recomputation" regime sanload measures.
type Engine struct {
	net    *topology.Network
	tab    *routes.Table
	timing simnet.Timing

	hosts []topology.NodeID
	hidx  []int32 // NodeID -> dense host index, -1 for non-plan nodes
	nh    int

	// Compiled routes: pair (si*nh+di) p covers hops[pairStart[p]:pairStart[p+1]].
	pairStart []int32
	hops      []linkID
	valid     []bool  // route exists and every wire is alive
	wormBytes []int32 // full worm size: envelope + routing flits + payload

	nLinks int
	// busyUntil is the per-directed-link reservation horizon, in ns.
	busyUntil []int64

	// Per-run accumulators.
	linkBusy  []int64 // reserved occupancy per directed link, ns
	linkWorms []int64
	linkWait  []int64 // head blocking time per directed link, ns
	pairBytes []int64 // delivered payload per pair
	lat       []int64 // per-delivered-worm latency, ns

	q *eventq.Heap[inj]

	sent, delivered, lost, blocked, delayed int64
	payload                                 int64
	makespan                                int64

	deadlockFree bool

	m metrics
}

// metrics is the engine's obs handle set (nil-safe no-ops when
// uninstrumented).
type metrics struct {
	sent      *obs.Counter
	delivered *obs.Counter
	lost      *obs.Counter
	blocked   *obs.Counter
	delayed   *obs.Counter
	latency   *obs.Histogram
	waitHist  *obs.Histogram
	peakUtil  *obs.Gauge
	peakWait  *obs.Gauge
	makespan  *obs.Gauge
}

// inj is one pending injection: the scheduled time, the sending host's
// dense index, and the position in that host's schedule. Ordering is
// (time, host, seq) — a strict total order, so replay is deterministic.
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

// New compiles the route table into a replay engine. The table must have
// been computed on net (wire indices are shared); msgBytes is the payload
// size worms carry. Deadlock freedom of the table is verified once here and
// reported on every Report.
func New(net *topology.Network, tab *routes.Table, timing simnet.Timing, msgBytes int) (*Engine, error) {
	if msgBytes <= 0 {
		msgBytes = 512
	}
	e := &Engine{
		net:    net,
		tab:    tab,
		timing: timing,
		hosts:  net.Hosts(),
		q:      eventq.New(injLess),
	}
	e.nh = len(e.hosts)
	if e.nh < 2 {
		return nil, fmt.Errorf("loadsim: need at least two hosts, have %d", e.nh)
	}
	e.hidx = make([]int32, net.NumNodes())
	for i := range e.hidx {
		e.hidx[i] = -1
	}
	for i, h := range e.hosts {
		e.hidx[h] = int32(i)
	}
	e.nLinks = 2 * net.NumWireSlots()
	e.pairStart = make([]int32, e.nh*e.nh+1)
	e.valid = make([]bool, e.nh*e.nh)
	e.wormBytes = make([]int32, e.nh*e.nh)
	for si, s := range e.hosts {
		for di, d := range e.hosts {
			p := si*e.nh + di
			e.pairStart[p] = int32(len(e.hops))
			if si == di {
				continue
			}
			wires, ok := tab.WirePath(s, d)
			if !ok {
				continue
			}
			cur := s
			for _, wi := range wires {
				w := net.WireByIndex(wi)
				var from topology.End
				if w.A.Node == cur {
					from = w.A
				} else {
					from = w.B
				}
				id := linkID(2 * wi)
				if from != w.A {
					id++
				}
				e.hops = append(e.hops, id)
				cur = w.Other(from).Node
			}
			if cur != d {
				return nil, fmt.Errorf("loadsim: table path %s -> %s ends at node %d",
					net.NameOf(s), net.NameOf(d), cur)
			}
			e.valid[p] = true
			// Worm size matches connet.Inject: envelope + one routing
			// flit per transited switch + payload.
			e.wormBytes[p] = int32(simnet.MessageBytes(len(wires)-1) + msgBytes)
		}
	}
	e.pairStart[e.nh*e.nh] = int32(len(e.hops))
	e.busyUntil = make([]int64, e.nLinks)
	e.linkBusy = make([]int64, e.nLinks)
	e.linkWorms = make([]int64, e.nLinks)
	e.linkWait = make([]int64, e.nLinks)
	e.pairBytes = make([]int64, e.nh*e.nh)
	e.deadlockFree = tab.VerifyDeadlockFree() == nil
	return e, nil
}

// Instrument mirrors replay outcomes onto the unified observability layer:
// per-worm counters and latency/wait histograms update during the replay
// loop, per-link peak gauges at its end. A nil registry is a no-op.
// Returns the engine for chaining.
func (e *Engine) Instrument(reg *obs.Registry) *Engine {
	e.m = metrics{
		sent:      reg.Counter("load.worms.sent"),
		delivered: reg.Counter("load.worms.delivered"),
		lost:      reg.Counter("load.worms.lost"),
		blocked:   reg.Counter("load.worms.blocked"),
		delayed:   reg.Counter("load.worms.delayed"),
		latency:   reg.Histogram("load.latency.ns", obs.DefaultBuckets()),
		waitHist:  reg.Histogram("load.link.wait.ns", obs.DefaultBuckets()),
		peakUtil:  reg.Gauge("load.link.peak_util_ppm"),
		peakWait:  reg.Gauge("load.link.peak_wait.ns"),
		makespan:  reg.Gauge("load.makespan.ns"),
	}
	return e
}

// Revalidate re-checks every compiled route against the live network:
// routes crossing a since-removed wire flip to invalid (their worms count
// as lost), routes whose wires all survive stay valid. Call it after
// mutating the network an Engine was built on.
func (e *Engine) Revalidate() {
	for si := range e.hosts {
		for di := range e.hosts {
			p := si*e.nh + di
			if si == di || e.pairStart[p] == e.pairStart[p+1] {
				continue
			}
			ok := true
			for _, id := range e.hops[e.pairStart[p]:e.pairStart[p+1]] {
				if !e.net.WireAlive(int(id) / 2) {
					ok = false
					break
				}
			}
			e.valid[p] = ok
		}
	}
}

// reset clears all per-run state.
func (e *Engine) reset() {
	for i := range e.busyUntil {
		e.busyUntil[i] = 0
		e.linkBusy[i] = 0
		e.linkWorms[i] = 0
		e.linkWait[i] = 0
	}
	for i := range e.pairBytes {
		e.pairBytes[i] = 0
	}
	e.lat = e.lat[:0]
	e.sent, e.delivered, e.lost, e.blocked, e.delayed = 0, 0, 0, 0, 0
	e.payload = 0
	e.makespan = 0
}

// inject walks one worm through the link reservations: wait behind an
// earlier reservation, die to the forward reset when the wait exceeds
// BlockedPortReset, leave a killed worm's earlier hops reserved. That is
// connet.send's link rule, and TestDifferentialConnet holds the two to the
// same fates; what differs is the source (TestSourceModelDiffers). It
// returns the delivery completion time in ns and whether the worm survived,
// and charges the per-link accumulators as it goes.
//
//sanlint:hotpath
func (e *Engine) inject(at int64, p int, payload int64) (int64, bool) {
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

// Run replays the plan and returns its report. The replay is a pure
// function of (engine state, plan): repeated Runs of one plan produce
// byte-identical reports.
func (e *Engine) Run(plan *workload.Plan) (*Report, error) {
	e.reset()
	if len(plan.Hosts) > e.nh {
		return nil, fmt.Errorf("loadsim: plan has %d hosts, network %d", len(plan.Hosts), e.nh)
	}
	total := plan.TotalSends()
	if cap(e.lat) < total {
		e.lat = make([]int64, 0, total)
	}
	// sender[i] maps plan host i to its dense engine index.
	sender := make([]int32, len(plan.Hosts))
	for i, h := range plan.Hosts {
		if int(h) >= len(e.hidx) || e.hidx[h] < 0 {
			return nil, fmt.Errorf("loadsim: plan host %d not in network", h)
		}
		sender[i] = e.hidx[h]
	}
	e.q.Reset()
	for i := range plan.Hosts {
		if len(plan.Sends[i]) > 0 {
			e.q.Push(inj{at: int64(plan.Sends[i][0].At), host: int32(i), seq: 0})
		}
	}
	payload := int64(plan.MsgBytes)
	// A k-way merge of the per-host schedules: the queue holds each host's
	// next send, and the earliest is replaced in place by its successor.
	for e.q.Len() > 0 {
		v, _ := e.q.Peek()
		sends := plan.Sends[v.host]
		if int(v.seq+1) < len(sends) {
			e.q.Set(0, inj{at: int64(sends[v.seq+1].At), host: v.host, seq: v.seq + 1})
		} else {
			e.q.Pop()
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
		done, alive := e.inject(v.at, p, payload)
		if !alive {
			continue
		}
		e.delivered++
		e.m.delivered.Inc()
		e.payload += payload
		e.lat = append(e.lat, done-v.at)
		e.m.latency.Observe(time.Duration(done - v.at))
		if done > e.makespan {
			e.makespan = done
		}
	}
	return e.report(plan)
}
