package simnet

import (
	"errors"
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
	// Retries is how many times a missed probe is re-submitted (serially,
	// at collection time) before its failure is accepted. Useful over lossy
	// transports; pointless over the deterministic quiescent net.
	Retries int
	// Timeout, when positive, overrides the transport's response timeout
	// for every probe issued through the window.
	Timeout time.Duration
	// Backoff, when positive, replaces immediate retry resubmission with
	// capped exponential backoff: the k-th retry of a probe waits
	// Backoff<<k (bounded by BackoffCap) plus a deterministic jitter of up
	// to ±¼ of that base before resubmitting. The wait is virtual time,
	// slept on the transport's clock and charged to
	// WindowStats.TimeoutCost.
	Backoff time.Duration
	// BackoffCap bounds the exponential growth (default 8×Backoff).
	BackoffCap time.Duration
	// Seed drives the deterministic backoff jitter; windows created with
	// the same seed replay the same retry schedule.
	Seed uint64
	// RouteBudget, when positive, bounds the total retries spent on any
	// single route over the window's lifetime: a persistently dead route
	// stops consuming retry probes once its budget is exhausted.
	RouteBudget int
	// Metrics, when non-nil, is the obs registry the window registers its
	// counters in (names under "probe.window.", see internal/obs). Several
	// windows handed the same registry share handles and therefore
	// aggregate; nil gets a private registry, preserving the historical
	// per-window Stats semantics.
	Metrics *obs.Registry
}

// WindowStats counts what a ProbeWindow did.
type WindowStats struct {
	// Submitted counts probes handed to the transport, retries included.
	Submitted int64
	// Retries counts re-submissions after a miss.
	Retries int64
	// MaxInFlight is the in-flight high-water mark.
	MaxInFlight int
	// TimeoutCost is virtual time spent waiting on probes that missed —
	// the cost pipelining overlaps, and exactly what the window buys back.
	// Backoff waits are included (they are time lost to misses too).
	TimeoutCost time.Duration
	// BackoffWait is the portion of TimeoutCost spent in retry backoff.
	BackoffWait time.Duration
	// BudgetDenied counts retries suppressed by an exhausted route budget.
	BudgetDenied int64
}

// String renders the counters on one line.
func (s WindowStats) String() string {
	out := fmt.Sprintf("submitted=%d retries=%d inflight≤%d timeout-cost=%v",
		s.Submitted, s.Retries, s.MaxInFlight, s.TimeoutCost)
	if s.BackoffWait > 0 || s.BudgetDenied > 0 {
		out += fmt.Sprintf(" backoff=%v budget-denied=%d", s.BackoffWait, s.BudgetDenied)
	}
	return out
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
	// routeSpent tracks retries charged per route (RouteBudget > 0 only);
	// jitterSeq numbers backoff draws so jitter is deterministic per window.
	routeSpent map[string]int
	jitterSeq  uint64
	// keyBuf is the reusable budget key scratch (probe kind byte plus raw
	// turn bytes); map lookups through string(keyBuf) do not allocate.
	keyBuf []byte
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
	submitted    *obs.Counter
	retries      *obs.Counter
	budgetDenied *obs.Counter
	timeoutCost  *obs.Counter // virtual ns lost to misses
	backoffWait  *obs.Counter // portion of the above spent in backoff
	maxInFlight  *obs.Gauge
	missWait     *obs.Histogram
}

// registerWindowMetrics resolves the window's handles in reg.
func registerWindowMetrics(reg *obs.Registry) windowMetrics {
	return windowMetrics{
		submitted:    reg.Counter("probe.window.submitted"),
		retries:      reg.Counter("probe.window.retries"),
		budgetDenied: reg.Counter("probe.window.budget.denied"),
		timeoutCost:  reg.Counter("probe.window.timeout.cost.ns"),
		backoffWait:  reg.Counter("probe.window.backoff.wait.ns"),
		maxInFlight:  reg.Gauge("probe.window.inflight.max"),
		missWait:     reg.Histogram("probe.window.miss.wait", obs.DefaultBuckets()),
	}
}

// NewProbeWindow builds a window over a transport.
func NewProbeWindow(p Prober, cfg WindowConfig) *ProbeWindow {
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	if cfg.Backoff > 0 && cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 8 * cfg.Backoff
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	w := &ProbeWindow{p: p, cfg: cfg, m: registerWindowMetrics(reg)}
	if cfg.RouteBudget > 0 {
		w.routeSpent = make(map[string]int)
	}
	return w
}

// mix64 is the splitmix64 finalizer: a deterministic seeded hash used for
// backoff jitter (no global rand, no wall clock — the runs stay replayable).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffWait computes the capped exponential base for retry attempt (0-based)
// and applies the window's deterministic jitter of up to ±¼ of the base.
func (w *ProbeWindow) backoffWait(attempt int) time.Duration {
	base := w.cfg.BackoffCap
	if attempt < 16 {
		if b := w.cfg.Backoff << uint(attempt); b < base {
			base = b
		}
	}
	w.jitterSeq++
	if span := int64(base) / 2; span > 0 {
		jitter := time.Duration(mix64(w.cfg.Seed+w.jitterSeq)%uint64(span+1)) - base/4
		base += jitter
	}
	return base
}

// Stats returns the engine counters accumulated so far, assembled from
// the obs handles. With a shared WindowConfig.Metrics registry the values
// aggregate across every window registered in it.
func (w *ProbeWindow) Stats() WindowStats {
	return WindowStats{
		Submitted:    w.m.submitted.Value(),
		Retries:      w.m.retries.Value(),
		MaxInFlight:  int(w.m.maxInFlight.Value()),
		TimeoutCost:  w.m.timeoutCost.DurationValue(),
		BackoffWait:  w.m.backoffWait.DurationValue(),
		BudgetDenied: w.m.budgetDenied.Value(),
	}
}

// Prober returns the underlying transport.
func (w *ProbeWindow) Prober() Prober { return w.p }

// appendProbeKey appends the probe's route-budget identity to dst: the kind
// byte followed by the raw turn bytes (turns are int8, one byte each), so
// map lookups through string(keyBuf) compile to zero-allocation access.
//
//sanlint:hotpath
func appendProbeKey(dst []byte, p Probe) []byte {
	dst = append(dst, byte(p.Kind))
	for _, t := range p.Route {
		dst = append(dst, byte(t))
	}
	return dst
}

// probeKey rebuilds the window's reusable key scratch for p and returns it.
func (w *ProbeWindow) probeKey(p Probe) []byte {
	w.keyBuf = appendProbeKey(w.keyBuf[:0], p)
	return w.keyBuf
}

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
// order; bounded retry applies exactly as in Do.
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
	e.res = w.p.Submit(w.withTimeout(p))
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
// completion, run the bounded retry loop on a miss and return the final
// result with the submitter's tag. The result is the ring slot itself, valid
// until the stream's next Submit or Abandon; copy it to keep it longer.
func (s *Stream) Collect() (int, *ProbeResult) {
	e := &s.ring[s.head]
	if s.head++; s.head == len(s.ring) {
		s.head = 0
	}
	s.n--
	r := &e.res
	w := s.w
	p0 := r.Probe
	w.p.Collect(*r)
	if !r.OK {
		w.m.timeoutCost.AddDuration(r.Latency)
		w.m.missWait.Observe(r.Latency)
	}
	for attempt := 0; attempt < w.cfg.Retries && !r.OK && !errors.Is(r.Err, ErrUnsupported); attempt++ {
		if w.routeSpent != nil {
			key := string(w.probeKey(p0))
			if w.routeSpent[key] >= w.cfg.RouteBudget {
				w.m.budgetDenied.Inc()
				break
			}
			w.routeSpent[key]++
		}
		if w.cfg.Backoff > 0 {
			wait := w.backoffWait(attempt)
			w.p.Sleep(wait)
			w.m.timeoutCost.AddDuration(wait)
			w.m.backoffWait.AddDuration(wait)
		}
		w.m.retries.Inc()
		w.m.submitted.Inc()
		*r = Do(w.p, w.withTimeout(p0))
		if !r.OK {
			w.m.timeoutCost.AddDuration(r.Latency)
			w.m.missWait.Observe(r.Latency)
		}
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

// DoOne runs a single probe through the window (retry applies; no
// overlap, since there is nothing to overlap with).
func (w *ProbeWindow) DoOne(p Probe) ProbeResult {
	return w.Do([]Probe{p})[0]
}

// withTimeout applies the window-level timeout override.
func (w *ProbeWindow) withTimeout(p Probe) Probe {
	if w.cfg.Timeout > 0 && p.Timeout == 0 {
		p.Timeout = w.cfg.Timeout
	}
	return p
}
