package simnet

import (
	"fmt"
	"time"

	"sanmap/internal/obs"
)

// WindowConfig parameterises a ProbeWindow.
type WindowConfig struct {
	// Window is the maximum number of in-flight probes. Values <= 1 degrade
	// to strict submit-then-collect serial operation, which reproduces the
	// serial Do-per-probe transcript byte for byte.
	Window int
	// Metrics, when non-nil, is the obs registry the window registers its
	// counters in (names under "probe.window.", see internal/obs). Several
	// windows handed the same registry share handles and therefore
	// aggregate; nil gets a private registry, preserving the historical
	// per-window Stats semantics.
	Metrics *obs.Registry
}

// WindowStats counts what a ProbeWindow did.
type WindowStats struct {
	// Submitted counts probes handed to the transport.
	Submitted int64
	// Retries is always 0: the window never re-asks a probe, because on a
	// quiescent network a miss is the answer. The field stays for the
	// readers that still print it.
	Retries int64
	// MaxInFlight is the in-flight high-water mark.
	MaxInFlight int
	// TimeoutCost is virtual time spent waiting on probes that missed —
	// the cost pipelining overlaps, and exactly what the window buys back.
	TimeoutCost time.Duration
}

// String renders the counters on one line.
func (s WindowStats) String() string {
	return fmt.Sprintf("submitted=%d retries=%d inflight≤%d timeout-cost=%v",
		s.Submitted, s.Retries, s.MaxInFlight, s.TimeoutCost)
}

// ProbeWindow is the batching scheduler of the pipelined probe engine: it
// slides a bounded window of in-flight probes over a batch, collecting
// results strictly in submission order so that runs stay deterministic. The
// point is §5.2's observation inverted: unanswered probes cost the full
// response timeout, but with W probes in flight those timeouts overlap, so
// a batch with many misses completes in roughly max(issue time, longest
// wait) instead of their sum.
//
// A ProbeWindow is not safe for concurrent use; like the transports, its
// concurrency is virtual.
type ProbeWindow struct {
	p   Prober
	cfg WindowConfig
	m   windowMetrics
	// spare/spareStream recycle the ring buffer and Stream header between
	// streams: Abandon returns them, the next Stream picks them up. Only
	// one stream is live at a time in every engine in this repo, so one
	// slot suffices; concurrent streams simply fall back to allocating.
	// A Stream must not be used after Abandon.
	spare       []spending
	spareStream *Stream
}

// windowMetrics holds the window's pre-registered obs handles — the
// counters behind WindowStats. Handles, not fields: the hot path updates
// them with zero allocation, and a shared registry (WindowConfig.Metrics)
// aggregates several windows into one telemetry sidecar.
type windowMetrics struct {
	submitted   *obs.Counter
	timeoutCost *obs.Counter // virtual ns lost to misses
	maxInFlight *obs.Gauge
	missWait    *obs.Histogram
}

// registerWindowMetrics resolves the window's handles in reg.
func registerWindowMetrics(reg *obs.Registry) windowMetrics {
	return windowMetrics{
		submitted:   reg.Counter("probe.window.submitted"),
		timeoutCost: reg.Counter("probe.window.timeout.cost.ns"),
		maxInFlight: reg.Gauge("probe.window.inflight.max"),
		missWait:    reg.Histogram("probe.window.miss.wait", obs.DefaultBuckets()),
	}
}

// NewProbeWindow builds a window over a transport.
func NewProbeWindow(p Prober, cfg WindowConfig) *ProbeWindow {
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &ProbeWindow{p: p, cfg: cfg, m: registerWindowMetrics(reg)}
}

// Stats returns the engine counters accumulated so far, assembled from
// the obs handles. With a shared WindowConfig.Metrics registry the values
// aggregate across every window registered in it.
func (w *ProbeWindow) Stats() WindowStats {
	return WindowStats{
		Submitted:   w.m.submitted.Value(),
		MaxInFlight: int(w.m.maxInFlight.Value()),
		TimeoutCost: w.m.timeoutCost.DurationValue(),
	}
}

// Prober returns the underlying transport.
func (w *ProbeWindow) Prober() Prober { return w.p }

// Do issues the batch through the sliding window and returns one result per
// probe, in submission order: the window is kept full with Submit, and the
// oldest probe is collected whenever it is.
func (w *ProbeWindow) Do(batch []Probe) []ProbeResult {
	out := make([]ProbeResult, len(batch))
	st := w.Stream()
	for i, p := range batch {
		if st.Free() == 0 {
			tag, r := st.Collect()
			out[tag] = *r
		}
		st.Submit(p, i)
	}
	for st.Len() > 0 {
		tag, r := st.Collect()
		out[tag] = *r
	}
	st.Abandon() // empty: recycles the ring
	return out
}

// spending is one queued Stream entry. The transport completes a probe at
// submit time, so res already holds the result when the entry is queued.
// The probe itself lives in res.Probe — every transport echoes the submitted
// probe there — so the entry is one ProbeResult wide, not two.
type spending struct {
	tag int
	res ProbeResult
}

// Stream is the incremental interface to a ProbeWindow — the fully general
// form of Do, for pipelines whose later probes depend on earlier responses
// (e.g. a follow-up probe submitted the moment its predecessor's miss is
// collected, while the rest of the window stays in flight). Callers submit
// tagged probes as Free() allows and Collect results strictly in submission
// order.
//
// Entries live in a ring buffer and a result is moved once: Submit has the
// transport's answer stored straight into the ring's tail slot, and Collect
// hands out a pointer to the head slot instead of a copy. A collected slot
// is not cleared — the next Submit that lands on it overwrites every field —
// so the ring pins at most its own length in old routes and host names.
type Stream struct {
	w       *ProbeWindow
	ring    []spending
	head    int // index of the oldest entry
	n       int // queued entries, each holding a transport window slot
	maxSeen int // high-water mark already pushed to the gauge
}

// Stream opens an incremental submission stream over the window, adopting
// the recycled Stream header and ring buffer if free.
func (w *ProbeWindow) Stream() *Stream {
	s := w.spareStream
	if s == nil {
		s = &Stream{w: w}
	} else {
		w.spareStream = nil
		s.head, s.n, s.maxSeen = 0, 0, 0
	}
	s.ring, w.spare = w.spare, nil
	return s
}

// Free reports the remaining window capacity.
func (s *Stream) Free() int { return s.w.cfg.Window - s.n }

// Len reports queued entries awaiting Collect.
func (s *Stream) Len() int { return s.n }

// slot queues one entry at the ring's tail, growing if full, and returns it
// for the caller to fill in place. Whatever an earlier entry left in the
// slot is still there: the caller assigns tag and res, both.
func (s *Stream) slot() *spending {
	if s.n == len(s.ring) {
		s.grow()
	}
	i := s.head + s.n
	if i >= len(s.ring) {
		i -= len(s.ring)
	}
	s.n++
	return &s.ring[i]
}

// grow doubles the ring (initially sizing it to hold a full window) and
// linearises the queued entries at the front.
func (s *Stream) grow() {
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

// Submit hands one probe to the transport and queues its result; the entry
// holds a window slot until collected. Submit never blocks — callers wanting
// overlap should stay within Free().
func (s *Stream) Submit(p Probe, tag int) {
	w := s.w
	e := s.slot()
	e.tag = tag
	e.res = w.p.Submit(p)
	w.m.submitted.Inc()
	if s.n > s.maxSeen {
		s.maxSeen = s.n
		w.m.maxInFlight.SetMax(int64(s.n))
	}
}

// NextDone peeks at the completion time of the oldest queued entry without
// collecting it. Schedulers use it to decide whether a further speculative
// submission rides for free: as long as the clock has not reached the
// oldest completion, issuing another probe overlaps time the stream would
// spend waiting anyway.
func (s *Stream) NextDone() (time.Duration, bool) {
	if s.n == 0 {
		return 0, false
	}
	return s.ring[s.head].res.Done, true
}

// Collect retires the oldest entry: synchronise the clock with its
// completion, count a miss's wait and return the result with the
// submitter's tag. A miss is final — on a quiescent network asking again
// gets the same answer. The result is the ring slot itself, valid until the
// stream's next Submit or Abandon; copy it to keep it longer.
func (s *Stream) Collect() (int, *ProbeResult) {
	e := &s.ring[s.head]
	if s.head++; s.head == len(s.ring) {
		s.head = 0
	}
	s.n--
	r := &e.res
	w := s.w
	w.p.Collect(*r)
	if !r.OK {
		w.m.timeoutCost.AddDuration(r.Latency)
		w.m.missWait.Observe(r.Latency)
	}
	return e.tag, r
}

// Abandon drops every queued entry without collecting it: the messages were
// sent and their overhead paid, but nobody waits for the responses. Used
// when the consumer loses interest in its speculative lookahead. The
// entries still queued are cleared, so the recycled ring pins no result
// that nobody will read. The ring and the Stream itself are recycled to the
// window for the next stream, so a Stream must not be used after Abandon.
func (s *Stream) Abandon() {
	for ; s.n > 0; s.n-- {
		s.ring[s.head] = spending{}
		if s.head++; s.head == len(s.ring) {
			s.head = 0
		}
	}
	s.head = 0
	if s.ring != nil {
		s.w.spare = s.ring
		s.ring = nil
	}
	s.w.spareStream = s
}
