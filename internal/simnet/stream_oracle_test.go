package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// copyingStream is the Stream as it stood before results moved in place,
// kept as the oracle for TestStreamInPlaceMatchesCopying: every entry is
// built as a value, pushed into the ring, popped out of it (clearing the
// slot) and returned by value. Only the names and the recycling differ from
// the original; see Abandon.
type copyingStream struct {
	w       *ProbeWindow
	ring    []spending
	head    int // index of the oldest entry
	n       int // queued entries
	live    int // entries occupying transport window slots
	maxSeen int // high-water mark already pushed to the gauge
}

// Free reports the remaining window capacity.
func (s *copyingStream) Free() int { return s.w.cfg.Window - s.live }

// Len reports queued entries awaiting Collect.
func (s *copyingStream) Len() int { return s.n }

// push appends an entry at the ring's tail, growing if full.
func (s *copyingStream) push(e spending) {
	if s.n == len(s.ring) {
		s.grow()
	}
	s.ring[(s.head+s.n)%len(s.ring)] = e
	s.n++
}

// pop removes and returns the oldest entry.
func (s *copyingStream) pop() spending {
	e := s.ring[s.head]
	s.ring[s.head] = spending{}
	s.head = (s.head + 1) % len(s.ring)
	s.n--
	return e
}

// grow doubles the ring (initially sizing it to hold a full window) and
// linearises the live entries at the front.
func (s *copyingStream) grow() {
	size := 2 * len(s.ring)
	if min := s.w.cfg.Window; size < min {
		size = min
	}
	buf := make([]spending, size)
	for i := 0; i < s.n; i++ {
		buf[i] = s.ring[(s.head+i)%len(s.ring)]
	}
	s.ring = buf
	s.head = 0
}

// Submit hands one probe to the transport and queues its result. Submit
// never blocks — callers wanting overlap should stay within Free().
func (s *copyingStream) Submit(p Probe, tag int) {
	w := s.w
	s.live++
	s.push(spending{tag: tag, res: w.p.Submit(p)})
	w.m.submitted.Inc()
	if s.live > s.maxSeen {
		s.maxSeen = s.live
		w.m.maxInFlight.SetMax(int64(s.live))
	}
}

// NextDone peeks at the completion time of the oldest queued entry without
// collecting it. Schedulers use it to decide whether a further speculative
// submission rides for free: as long as the clock has not reached the
// oldest completion, issuing another probe overlaps time the stream would
// spend waiting anyway.
func (s *copyingStream) NextDone() (time.Duration, bool) {
	if s.n == 0 {
		return 0, false
	}
	return s.ring[s.head].res.Done, true
}

// Collect retires the oldest entry: synchronise the clock with its
// completion, count a miss's wait and return the result with the
// submitter's tag.
func (s *copyingStream) Collect() (int, ProbeResult) {
	e := s.pop()
	s.live--
	w := s.w
	r := e.res
	w.p.Collect(r)
	if !r.OK {
		w.m.timeoutCost.AddDuration(r.Latency)
		w.m.missWait.Observe(r.Latency)
	}
	return e.tag, r
}

// Abandon drops every queued entry without collecting it. The oracle does
// not recycle into the window — w.spare and w.spareStream belong to the
// in-place Stream — and opens every stream on a fresh, zeroed ring, which is
// what the recycled one looked like after the old Abandon cleared it.
func (s *copyingStream) Abandon() {
	for i := range s.ring {
		s.ring[i] = spending{}
	}
	s.head, s.n, s.live = 0, 0, 0
	s.ring = nil
}

// streamLike is what the differential test drives: the two streams differ
// only in how Collect hands its result over.
type streamLike interface {
	Free() int
	Len() int
	Submit(p Probe, tag int)
	NextDone() (time.Duration, bool)
	collect() (int, ProbeResult)
	Abandon()
}

func (s *copyingStream) collect() (int, ProbeResult) { return s.Collect() }

func (s *Stream) collect() (int, ProbeResult) {
	tag, r := s.Collect()
	return tag, *r
}

// streamWorld is one side of the differential: a fresh probeNet, a transport
// stack over it, a window, and whichever Stream implementation open hands out.
type streamWorld struct {
	net  *Net
	w    *ProbeWindow
	open func() streamLike
	st   streamLike
}

// streamProbes is the script alphabet on probeNet: hits and misses of every
// supported kind, and two kinds the transport refuses (which cost nothing).
var streamProbes = []Probe{
	{Kind: ProbeHost, Route: Route{3, 3}},
	{Kind: ProbeSwitch, Route: Route{3}},
	{Kind: ProbeRaw, Route: Route{3, 1, -1, -3}},
	{Kind: ProbeTolerant, Route: Route{3, 3, 1}},
	{Kind: ProbeHost, Route: Route{1}},
	{Kind: ProbeHost, Route: Route{7}},
	{Kind: ProbeHost, Route: Route{3}},
	{Kind: ProbeSwitch, Route: Route{3, 3}},
	{Kind: ProbeSwitch, Route: Route{-1}},
	{Kind: ProbeID, Route: Route{3}},
	{Kind: ProbeKind(99)},
}

// TestStreamInPlaceMatchesCopying drives the in-place Stream and the copying
// oracle through the same seeded scripts — single submissions and runs of
// them (within and beyond the window, so the ring wraps and grows),
// collections, peeks, and abandons with entries still queued — over the
// quiescent transport, a lossy one and a one-shot dropper, at several window
// sizes. After each operation the two sides must agree on what was
// collected, on Free, Len and NextDone, and on the virtual clock, and Free
// must be the window less what is queued; at the end they must agree on the
// window's and the transport's counters.
func TestStreamInPlaceMatchesCopying(t *testing.T) {
	transports := []struct {
		name string
		wrap func(ep *Endpoint) Prober
	}{
		{"endpoint", func(ep *Endpoint) Prober { return ep }},
		{"flaky", func(ep *Endpoint) Prober {
			return &FlakyProber{Prober: ep, DropRate: 0.3, Rng: rand.New(rand.NewSource(17))}
		}},
		{"dropFirst", func(ep *Endpoint) Prober { return &dropFirst{Prober: ep} }},
	}
	configs := []WindowConfig{
		{Window: 4},
		{Window: 8},
		{Window: 1},
		{Window: 3},
		{Window: 2},
	}
	for _, tr := range transports {
		for ci, cfg := range configs {
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("%s/cfg%d/seed%d", tr.name, ci, seed)
				world := func(copying bool) *streamWorld {
					sn, h0, _ := probeNet(t)
					sw := &streamWorld{net: sn, w: NewProbeWindow(tr.wrap(sn.Endpoint(h0)), cfg)}
					if copying {
						sw.open = func() streamLike { return &copyingStream{w: sw.w} }
					} else {
						sw.open = func() streamLike { return sw.w.Stream() }
					}
					sw.st = sw.open()
					return sw
				}
				runStreamScript(t, name, rand.New(rand.NewSource(seed)), world(false), world(true))
			}
		}
	}
}

// runStreamScript plays one seeded script on both worlds in lockstep.
func runStreamScript(t *testing.T, name string, rng *rand.Rand, got, want *streamWorld) {
	t.Helper()
	both := func(f func(sw *streamWorld)) { f(got); f(want) }
	collect := func(op int) {
		gt, gr := got.st.collect()
		wt, wr := want.st.collect()
		if gt != wt || !reflect.DeepEqual(gr, wr) {
			t.Fatalf("%s op %d: collected (%d, %+v), oracle (%d, %+v)", name, op, gt, gr, wt, wr)
		}
	}
	pick := func() Probe { return streamProbes[rng.Intn(len(streamProbes))] }
	tag := 0
	for op := 0; op < 400; op++ {
		switch k := rng.Intn(20); {
		case k < 7: // one probe, whether or not the window has room
			p := pick()
			both(func(sw *streamWorld) { sw.st.Submit(p, tag) })
			tag++
		case k < 10: // a run of probes, usually past what the window has free
			for n := 1 + rng.Intn(6); n > 0; n-- {
				p := pick()
				both(func(sw *streamWorld) { sw.st.Submit(p, tag) })
				tag++
			}
		case k < 19:
			if got.st.Len() > 0 {
				collect(op)
			}
		default: // lose interest with entries still queued; the next stream recycles the ring
			both(func(sw *streamWorld) { sw.st.Abandon(); sw.st = sw.open() })
		}
		gd, gok := got.st.NextDone()
		wd, wok := want.st.NextDone()
		if got.st.Free() != want.st.Free() || got.st.Len() != want.st.Len() || gd != wd || gok != wok {
			t.Fatalf("%s op %d: free/len/next = %d/%d/%v,%v, oracle %d/%d/%v,%v", name, op,
				got.st.Free(), got.st.Len(), gd, gok, want.st.Free(), want.st.Len(), wd, wok)
		}
		if got.net.Clock() != want.net.Clock() {
			t.Fatalf("%s op %d: clock %v, oracle %v", name, op, got.net.Clock(), want.net.Clock())
		}
		if got.st.Free() != got.w.cfg.Window-got.st.Len() {
			t.Fatalf("%s op %d: free %d with %d queued in a window of %d", name, op,
				got.st.Free(), got.st.Len(), got.w.cfg.Window)
		}
	}
	for got.st.Len() > 0 {
		collect(-1)
	}
	if got.w.Stats() != want.w.Stats() {
		t.Errorf("%s: window stats %+v, oracle %+v", name, got.w.Stats(), want.w.Stats())
	}
	if got.net.Stats() != want.net.Stats() || got.net.Clock() != want.net.Clock() {
		t.Errorf("%s: transport %+v at %v, oracle %+v at %v", name,
			got.net.Stats(), got.net.Clock(), want.net.Stats(), want.net.Clock())
	}
}

// TestStreamSteadyStateZeroAlloc: once the ring exists, a Submit and the
// Collect that retires it allocate nothing — the result is written into the
// ring slot and read out of it through a pointer.
func TestStreamSteadyStateZeroAlloc(t *testing.T) {
	sn, h0, _ := probeNet(t)
	st := NewProbeWindow(sn.Endpoint(h0), WindowConfig{Window: 8}).Stream()
	hit, miss := Probe{Kind: ProbeHost, Route: Route{3, 3}}, Probe{Kind: ProbeSwitch, Route: Route{3, 3}}
	pair := func() {
		st.Submit(hit, 0)
		st.Submit(miss, 1)
		if _, r := st.Collect(); !r.OK || r.Host != "h1" {
			t.Fatalf("hit collected as %+v", *r)
		}
		if _, r := st.Collect(); r.OK {
			t.Fatalf("miss collected as %+v", *r)
		}
	}
	pair() // sizes the ring
	if allocs := testing.AllocsPerRun(200, pair); allocs != 0 {
		t.Errorf("steady-state Submit+Collect allocates %v times per pair", allocs)
	}
}
