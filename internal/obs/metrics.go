package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// Registry holds named metrics. Registration returns pre-resolved handles
// — the hot path never touches the registry again, so updates are
// zero-allocation and map-lookup-free. Names follow the dotted scheme
// documented in the package comment; registering a name twice returns the
// same handle, which is how several instrumented components share one
// aggregate counter when handed one registry.
//
// A nil *Registry is a valid no-op: it hands out nil handles, whose
// update methods are themselves no-ops, so instrumented code registers
// and updates unconditionally.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically accumulating metric handle.
type Counter struct {
	name string
	v    int64
}

// Counter registers (or finds) the counter with the given name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Add accumulates n. Nil receivers are no-ops, so instrumentation sites
// need no registry checks.
//
//sanlint:hotpath
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc accumulates 1.
//
//sanlint:hotpath
func (c *Counter) Inc() { c.Add(1) }

// AddDuration accumulates a virtual-time duration as nanoseconds; pair
// with a ".ns"-suffixed name and read back with DurationValue.
//
//sanlint:hotpath
func (c *Counter) AddDuration(d time.Duration) { c.Add(int64(d)) }

// Value returns the accumulated count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// DurationValue returns the accumulated count as a virtual-time duration.
func (c *Counter) DurationValue() time.Duration { return time.Duration(c.Value()) }

// Gauge is a last-value (or high-water-mark, via SetMax) metric handle.
type Gauge struct {
	name string
	v    int64
}

// Gauge registers (or finds) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Set stores v.
//
//sanlint:hotpath
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
}

// SetMax stores v if it exceeds the current value — the high-water-mark
// idiom (e.g. the probe window's in-flight peak).
//
//sanlint:hotpath
func (g *Gauge) SetMax(v int64) {
	if g == nil || v <= g.v {
		return
	}
	g.v = v
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts virtual-time durations into fixed buckets chosen at
// registration — there is no dynamic resizing, so Observe touches only
// pre-allocated memory.
type Histogram struct {
	name   string
	bounds []time.Duration // inclusive upper bounds, ascending
	counts []int64         // len(bounds)+1; last is the overflow bucket
	sum    time.Duration
	n      int64
}

// Histogram registers (or finds) the histogram with the given name.
// bounds are inclusive upper bounds in ascending order; one overflow
// bucket is added past the last. Re-registering a name returns the
// existing histogram (its original bounds win).
func (r *Registry) Histogram(name string, bounds []time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{
		name:   name,
		bounds: append([]time.Duration(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// DefaultBuckets spans the virtual-time scales of the simulated NOW —
// 1µs to ~1s, ×4 per step (probe round trips sit near the bottom,
// blocked-port resets near the top).
func DefaultBuckets() []time.Duration {
	var out []time.Duration
	for b := time.Microsecond; b < time.Second; b *= 4 {
		out = append(out, b)
	}
	return out
}

// Observe counts one duration into its bucket.
//
//sanlint:hotpath
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += d
	h.n++
}

// Merge adds every observation from has counted to h, as if each had been
// Observed on h directly. It is how a component that tallies into a
// histogram of its own while it runs — registries are not safe for
// concurrent use — folds the tally into a shared registry afterwards. The
// two must have been registered with the same bounds. Either being nil is
// a no-op.
func (h *Histogram) Merge(from *Histogram) {
	if h == nil || from == nil {
		return
	}
	if len(from.counts) != len(h.counts) {
		panic(fmt.Sprintf("obs: merging %q (%d buckets) into %q (%d buckets)",
			from.name, len(from.counts), h.name, len(h.counts)))
	}
	for i, c := range from.counts {
		h.counts[i] += c
	}
	h.sum += from.sum
	h.n += from.n
}

// N returns the number of observations (0 on nil).
func (h *Histogram) N() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the total observed duration (0 on nil).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return h.sum
}

// EachCounter calls f for every registered counter in sorted name order —
// the programmatic analogue of WriteText, for servers that export the
// registry over a query protocol. Deterministic; nil registries no-op.
func (r *Registry) EachCounter(f func(name string, value int64)) {
	if r == nil {
		return
	}
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f(n, r.counters[n].v)
	}
}

// EachGauge calls f for every registered gauge in sorted name order.
func (r *Registry) EachGauge(f func(name string, value int64)) {
	if r == nil {
		return
	}
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f(n, r.gauges[n].v)
	}
}

// WriteText renders every metric sorted by name, one per line:
// counters and gauges as "name value", duration counters additionally in
// duration notation, histograms as count/sum plus per-bucket tallies
// (empty buckets omitted). Deterministic by construction.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := r.counters[n]
		if len(n) > 3 && n[len(n)-3:] == ".ns" {
			fmt.Fprintf(bw, "%s %d (%v)\n", n, c.v, c.DurationValue())
		} else {
			fmt.Fprintf(bw, "%s %d\n", n, c.v)
		}
	}
	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(bw, "%s %d\n", n, r.gauges[n].v)
	}
	names = names[:0]
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := r.hists[n]
		fmt.Fprintf(bw, "%s count=%d sum=%v", n, h.n, h.sum)
		for i, c := range h.counts {
			if c == 0 {
				continue
			}
			if i < len(h.bounds) {
				fmt.Fprintf(bw, " le(%v)=%d", h.bounds[i], c)
			} else {
				fmt.Fprintf(bw, " overflow=%d", c)
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
