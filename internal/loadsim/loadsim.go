package loadsim

import (
	"fmt"
	"sync"
	"time"

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
// Engine can replay many plans; accumulators reset at each Run. Nothing in
// a replay is shared with another engine's — not even with a Copy's — so
// RunAll replays one plan on several engines at once.
//
// An Engine snapshots its route table at New/Revalidate time. After the
// underlying network mutates (link cuts), Revalidate re-checks each
// compiled route against the live wires: traffic on broken routes counts
// as lost, which is exactly the "stale table after a fault, before route
// recomputation" regime sanload measures.
type Engine struct {
	net    *topology.Network
	timing simnet.Timing

	hosts []topology.NodeID
	hidx  []int32 // NodeID -> dense host index, -1 for non-plan nodes
	nh    int

	// Compiled routes, immutable after New and shared with every Copy:
	// pair (si*nh+di) p covers hops[pairStart[p]:pairStart[p+1]].
	pairStart []int32
	hops      []linkID
	wormBytes []int32 // full worm size: envelope + routing flits + payload
	// wires holds the two ends of every wire a compiled route crosses, as
	// they were at New: reports name link endpoints from here, so they
	// still render after the wire has been cut.
	wires []topology.Wire

	valid []bool // route exists and every wire is alive

	nLinks int
	// busyUntil is the per-directed-link reservation horizon, in ns.
	busyUntil []int64

	// Per-run accumulators.
	linkBusy  []int64 // reserved occupancy per directed link, ns
	linkWorms []int64
	linkWait  []int64 // head blocking time per directed link, ns
	pairBytes []int64 // delivered payload per pair
	lat       []int64 // per-delivered-worm latency, ns
	// latScratch is the second buffer report's radix sort of lat needs.
	latScratch []int64

	sent, lost, blocked, delayed int64
	makespan                     int64

	deadlockFree bool

	m metrics
	// The run's own latency and link-wait histograms, merged into m's
	// after the replay; nil on an uninstrumented engine.
	latTally, waitTally *obs.Histogram
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
		timing: timing,
		hosts:  net.Hosts(),
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
	e.wires = make([]topology.Wire, net.NumWireSlots())
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
				e.wires[wi] = w
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
	e.deadlockFree = tab.VerifyDeadlockFree() == nil
	e.allocState()
	return e, nil
}

// allocState gives the engine reservation and accumulator arrays of its own.
func (e *Engine) allocState() {
	e.busyUntil = make([]int64, e.nLinks)
	e.linkBusy = make([]int64, e.nLinks)
	e.linkWorms = make([]int64, e.nLinks)
	e.linkWait = make([]int64, e.nLinks)
	e.pairBytes = make([]int64, e.nh*e.nh)
	e.lat, e.latScratch = nil, nil
}

// Copy returns an engine over the same compiled routes with route validity,
// reservations and accumulators of its own: what the copy replays or
// Revalidates never shows in e, and the other way round. It costs the
// per-link and per-pair arrays, not a route compilation. The copy mirrors
// onto the registry e is instrumented with.
func (e *Engine) Copy() *Engine {
	c := *e
	c.valid = append([]bool(nil), e.valid...)
	c.allocState()
	return &c
}

// Instrument mirrors replay outcomes onto the unified observability layer:
// worm counters, latency and link-wait histograms and per-link peak gauges.
// Nothing is mirrored while a replay runs — registries are not safe for
// concurrent use, and RunAll's replays are concurrent. A replay keeps its
// own tallies and Run folds them in when it ends, RunAll after all replays
// have, engine by engine in argument order; the counts are what per-worm
// updates would have left. A nil registry is a no-op. Returns the engine
// for chaining.
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

// reset clears all per-run state and sizes lat for a schedule of n worms.
func (e *Engine) reset(n int) {
	for i := range e.busyUntil {
		e.busyUntil[i] = 0
		e.linkBusy[i] = 0
		e.linkWorms[i] = 0
		e.linkWait[i] = 0
	}
	for i := range e.pairBytes {
		e.pairBytes[i] = 0
	}
	if cap(e.lat) < n {
		e.lat = make([]int64, 0, n)
	}
	e.lat = e.lat[:0]
	e.sent, e.lost, e.blocked, e.delayed = 0, 0, 0, 0
	e.makespan = 0
	e.latTally, e.waitTally = nil, nil
	if e.m.latency != nil {
		own := obs.NewRegistry()
		e.latTally = own.Histogram("latency", obs.DefaultBuckets())
		e.waitTally = own.Histogram("wait", obs.DefaultBuckets())
	}
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
				return 0, false
			}
			e.linkWait[id] += wait
			e.waitTally.Observe(time.Duration(wait))
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
	}
	done := arr + occupancy
	e.pairBytes[p] += payload
	return done, true
}

// scan replays a merged schedule in order; sender maps a plan host's index
// to the engine's. It returns the index of the first injection whose
// destination is not a host of the network, or -1.
//
//sanlint:hotpath
func (e *Engine) scan(sched []workload.Injection, sender []int32, payload int64) int {
	for i, s := range sched {
		di := e.hidx[s.Dst]
		if di < 0 {
			return i
		}
		e.sent++
		p := int(sender[s.Src])*e.nh + int(di)
		if !e.valid[p] {
			e.lost++
			continue
		}
		at := int64(s.At)
		done, alive := e.inject(at, p, payload)
		if !alive {
			continue
		}
		e.lat = append(e.lat, done-at)
		if done > e.makespan {
			e.makespan = done
		}
	}
	return -1
}

// replay runs one merged schedule of plan through the engine and assembles
// the report. It touches nothing outside the engine.
func (e *Engine) replay(plan *workload.Plan, sched []workload.Injection) (*Report, error) {
	if len(plan.Hosts) > e.nh {
		return nil, fmt.Errorf("loadsim: plan has %d hosts, network %d", len(plan.Hosts), e.nh)
	}
	sender := make([]int32, len(plan.Hosts))
	for i, h := range plan.Hosts {
		if int(h) >= len(e.hidx) || e.hidx[h] < 0 {
			return nil, fmt.Errorf("loadsim: plan host %d not in network", h)
		}
		sender[i] = e.hidx[h]
	}
	e.reset(len(sched))
	if bad := e.scan(sched, sender, int64(plan.MsgBytes)); bad >= 0 {
		return nil, fmt.Errorf("loadsim: plan destination %d not in network", sched[bad].Dst)
	}
	if e.latTally != nil {
		for _, v := range e.lat {
			e.latTally.Observe(time.Duration(v))
		}
	}
	return e.report(plan), nil
}

// mirror folds a finished replay into the registry the engine is
// instrumented with.
func (e *Engine) mirror(r *Report) {
	e.m.sent.Add(r.Sent)
	e.m.delivered.Add(r.Delivered)
	e.m.lost.Add(r.Lost)
	e.m.blocked.Add(r.Blocked)
	e.m.delayed.Add(r.Delayed)
	e.m.latency.Merge(e.latTally)
	e.m.waitHist.Merge(e.waitTally)
	var peakUtil, peakWait int64
	for _, ll := range r.Links {
		peakUtil = max(peakUtil, ll.UtilPPM)
		peakWait = max(peakWait, int64(ll.Wait))
	}
	e.m.peakUtil.Set(peakUtil)
	e.m.peakWait.Set(peakWait)
	e.m.makespan.Set(int64(r.Makespan))
}

// Run replays the plan and returns its report. The replay is a pure
// function of (engine state, plan): repeated Runs of one plan produce
// byte-identical reports.
func (e *Engine) Run(plan *workload.Plan) (*Report, error) {
	reps, err := RunAll(plan, e)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// RunAll replays one plan on every engine — the plan's schedules are merged
// once and each engine scans the result, several engines concurrently — and
// returns their reports in argument order. It is what Run on each engine in
// turn would return, and leaves in their registries what that would leave:
// replays share no state, and the engines' mirrors are folded in one at a
// time, in argument order, after all replays have ended. Like those Runs it
// stops at the first engine, in that order, whose replay fails. The engines
// must be distinct.
func RunAll(plan *workload.Plan, engines ...*Engine) ([]*Report, error) {
	sched := plan.Merge()
	reps := make([]*Report, len(engines))
	errs := make([]error, len(engines))
	if len(engines) == 1 {
		reps[0], errs[0] = engines[0].replay(plan, sched)
	} else {
		var wg sync.WaitGroup
		for i, e := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reps[i], errs[i] = e.replay(plan, sched)
			}()
		}
		wg.Wait()
	}
	for i, e := range engines {
		if errs[i] != nil {
			return nil, errs[i]
		}
		e.mirror(reps[i])
	}
	return reps, nil
}
