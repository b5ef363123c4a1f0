package loadsim

import (
	"fmt"
	"math"
	"runtime"
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

// MaxMsgBytes is the largest payload New takes on any route of under 65 516
// switches: an engine holds a worm's size — envelope, one routing flit per
// transited switch, payload — in 32 bits.
const MaxMsgBytes = math.MaxInt32 - 1<<16

// New compiles the route table into a replay engine. The table must have
// been computed on net (wire indices are shared); msgBytes is the payload
// size worms carry, and New fails when a route's worms would not fit in 32
// bits (see MaxMsgBytes). Deadlock freedom of the table is verified once here and
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
			path, ok := tab.WirePath(s, d)
			if !ok {
				continue
			}
			cur := s
			for w := path.Walk(); w.Next(); {
				e.wires[w.Wire()] = net.WireByIndex(w.Wire())
				e.hops = append(e.hops, linkID(w.Channel()))
				cur = w.To().Node
			}
			if cur != d {
				return nil, fmt.Errorf("loadsim: table path %s -> %s ends at node %d",
					net.NameOf(s), net.NameOf(d), cur)
			}
			e.valid[p] = true
			// Worm size matches connet.Inject: envelope + one routing
			// flit per transited switch + payload.
			size := int64(simnet.MessageBytes(path.Len()-1)) + int64(msgBytes)
			if size > math.MaxInt32 {
				return nil, fmt.Errorf("loadsim: a %d-byte worm from %s to %s does not fit in 32 bits",
					size, net.NameOf(s), net.NameOf(d))
			}
			e.wormBytes[p] = int32(size)
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
	e.lat = nil
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
// The walk has one data-dependent branch a hop, the kill: the wait is
// max(busyUntil-arr, 0), charged to the link and to the head's arrival
// whether it is zero or not, so a free link and a busy one take the same
// path, and whether the worm waited at all is read off its arrival at the
// end. The wait histogram is fed only on an instrumented engine.
//
//sanlint:hotpath
func (e *Engine) inject(at int64, p int, payload int64) (int64, bool) {
	occupancy := int64(e.wormBytes[p]) * int64(e.timing.ByteTime)
	reset := int64(e.timing.BlockedPortReset)
	latency := int64(e.timing.SwitchLatency)
	// Resliced to one length, the four arrays share one bounds check.
	busyUntil := e.busyUntil
	linkWait, linkBusy, linkWorms := e.linkWait[:len(busyUntil)], e.linkBusy[:len(busyUntil)], e.linkWorms[:len(busyUntil)]
	tally := e.waitTally
	hops := e.hops[e.pairStart[p]:e.pairStart[p+1]]
	arr := at
	for _, id := range hops {
		wait := max(busyUntil[id]-arr, 0)
		if wait > reset {
			e.blocked++
			return 0, false
		}
		if tally != nil && wait > 0 {
			tally.Observe(time.Duration(wait))
		}
		linkWait[id] += wait
		arr += wait
		busyUntil[id] = arr + occupancy
		linkBusy[id] += occupancy
		linkWorms[id]++
		arr += latency
	}
	// The head's arrival is late by exactly what it waited.
	if arr-at > int64(len(hops))*latency {
		e.delayed++
	}
	e.pairBytes[p] += payload
	return arr + occupancy, true
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

// start readies the engine to replay n injections of plan and returns the
// sender map scan takes: plan host index to engine host index.
func (e *Engine) start(plan *workload.Plan, n int) ([]int32, error) {
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
	e.reset(n)
	return sender, nil
}

// finish assembles the report of a replay whose schedule has been scanned.
func (e *Engine) finish(plan *workload.Plan) *Report {
	if e.latTally != nil {
		for _, v := range e.lat {
			e.latTally.Observe(time.Duration(v))
		}
	}
	return e.report(plan)
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
	reps, err := RunAll(plan, Replay{Engine: e})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// Replay is one engine's part in RunAll.
type Replay struct {
	Engine *Engine
	// Then, if not nil, is called with the engine's report as soon as its
	// replay has ended, while the other replays may still be running, on
	// the goroutine that scanned the replay's last stretch. It runs before
	// any mirror is folded in, so it must not touch a registry the engines
	// are instrumented with, nor another replay's engine. It is not called
	// for a replay that failed.
	Then func(*Report)
}

// stretch is how many injections of one replay a RunAll worker scans before
// it picks again which replay to advance: about 4 ms of the 128-host load
// report's replays on a 2.1 GHz Xeon. A quarter of it made the report
// slower, four times it no faster.
const stretch = 1 << 16

// run is one replay's progress through RunAll's schedule.
type run struct {
	sender []int32 // nil until the replay has started
	next   int     // injections scanned
	busy   bool    // a worker is advancing it
	done   bool
	rep    *Report
	err    error
}

// advance scans the run's next stretch of sched on rp's engine, starting
// the replay first and finishing it — the report, then rp.Then — after the
// last.
func (r *run) advance(plan *workload.Plan, sched []workload.Injection, rp Replay) {
	e := rp.Engine
	if r.sender == nil {
		if r.sender, r.err = e.start(plan, len(sched)); r.err != nil {
			r.done = true
			return
		}
	}
	end := min(r.next+stretch, len(sched))
	if bad := e.scan(sched[r.next:end], r.sender, int64(plan.MsgBytes)); bad >= 0 {
		r.err = fmt.Errorf("loadsim: plan destination %d not in network", sched[r.next+bad].Dst)
		r.done = true
		return
	}
	if r.next = end; end < len(sched) {
		return
	}
	r.rep, r.done = e.finish(plan), true
	if rp.Then != nil {
		rp.Then(r.rep)
	}
}

// RunAll replays one plan on every engine — the plan's schedules are merged
// once and each engine scans the result, several engines concurrently — and
// returns their reports in argument order. It is what Run on each engine in
// turn would return, and leaves in their registries what that would leave:
// replays share no state, and the engines' mirrors are folded in one at a
// time, in argument order, after all replays have ended. Like those Runs it
// stops at the first engine, in that order, whose replay fails. The engines
// must be distinct.
//
// One worker per CPU, up to one per replay, advances the replays a stretch
// of the schedule at a time. At each stretch a worker takes, of the replays
// no other worker holds, one with a Then before any without, and otherwise
// the one with the most injections left: a Then's work starts as early as
// it can and overlaps the other replays, and the replays without one end
// together instead of one trailing alone. Which worker scans which stretch
// changes nothing in a report: one replay's stretches are scanned in order,
// one at a time.
func RunAll(plan *workload.Plan, replays ...Replay) ([]*Report, error) {
	sched := plan.Merge()
	runs := make([]run, len(replays))
	var mu sync.Mutex
	// ahead reports whether replay i is to be advanced before replay j.
	ahead := func(i, j int) bool {
		if ti, tj := replays[i].Then != nil, replays[j].Then != nil; ti != tj {
			return ti
		}
		return runs[i].next < runs[j].next
	}
	// claim marks the replay to advance next busy and returns it, or -1
	// when every replay is held or done; mu must be held.
	claim := func() int {
		pick := -1
		for i := range runs {
			if !runs[i].busy && !runs[i].done && (pick < 0 || ahead(i, pick)) {
				pick = i
			}
		}
		if pick >= 0 {
			runs[pick].busy = true
		}
		return pick
	}
	work := func() {
		mu.Lock()
		for i := claim(); i >= 0; i = claim() {
			mu.Unlock()
			runs[i].advance(plan, sched, replays[i])
			mu.Lock()
			runs[i].busy = false
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(replays)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	reps := make([]*Report, len(replays))
	for i, r := range runs {
		if r.err != nil {
			return nil, r.err
		}
		replays[i].Engine.mirror(r.rep)
		reps[i] = r.rep
	}
	return reps, nil
}
