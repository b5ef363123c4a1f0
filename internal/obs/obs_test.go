package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// buildTrace records a fixed synthetic event sequence exercising every
// event shape: nested spans, instants with args, explicit spans on a
// secondary track, an unclosed span.
func buildTrace() *Tracer {
	t := NewTracer()
	t.Begin("mapper", "explore-phase", 0)
	t.Begin("mapper", "explore", 10*time.Microsecond, Int("vertex", 1))
	t.Instant("mapper", "probe", 12*time.Microsecond, String("route", "+1"), String("resp", "switch"))
	t.Instant("mapper", "discover", 12500*time.Nanosecond, Int("vertex", 2))
	t.End(40 * time.Microsecond)
	t.End(55 * time.Microsecond)
	t.Span("election", "mapper", 5*time.Microsecond, 45*time.Microsecond, String("host", "U"))
	t.OnTrack(3).Span("watch", "epoch", 0, 30*time.Microsecond, Int("epoch", 0))
	t.OnTrack(3).Instant("faults", "link-cut", 20*time.Microsecond, Int("wire", 7))
	t.Begin("mapper", "prune", 60*time.Microsecond) // deliberately left open
	return t
}

// TestChromeGolden: the Chrome export matches the checked-in golden file
// byte for byte. Regenerate with UPDATE_GOLDEN=1 go test ./internal/obs.
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/chrome_golden.json"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome export diverged from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestChromeValidJSON: the export parses as a JSON array of objects with
// the trace_event required keys.
func TestChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(events) != 8 {
		t.Fatalf("want 8 events, got %d", len(events))
	}
	for i, e := range events {
		for _, k := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Errorf("event %d missing %q: %v", i, k, e)
			}
		}
		if ph := e["ph"]; ph == "X" {
			if _, ok := e["dur"]; !ok {
				t.Errorf("span %d missing dur: %v", i, e)
			}
		}
	}
	// The nested explore span: 30µs starting at 10µs.
	if events[1]["ts"] != 10.0 || events[1]["dur"] != 30000.0/1000 {
		t.Errorf("explore span mistimed: %v", events[1])
	}
	// Track assignment.
	if events[5]["tid"] != 3.0 || events[6]["tid"] != 3.0 {
		t.Errorf("track-3 events on wrong track: %v / %v", events[5], events[6])
	}
}

// TestChromeByteIdentity: two identical recordings export identical bytes.
func TestChromeByteIdentity(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildTrace().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildTrace().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical recordings exported different bytes")
	}
}

// TestTextLog: deterministic line format, spans with dur first.
func TestTextLog(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != 8 {
		t.Errorf("want 8 lines:\n%s", out)
	}
	for _, want := range []string{
		"mapper.explore", "dur=30µs", "route=+1", "faults.link-cut", "wire=7", "election.mapper", "host=U",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text log lacks %q:\n%s", want, out)
		}
	}
}

// TestNilTracer: every method is a no-op on nil, and the writers emit
// valid empty output.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Begin("c", "n", 0)
	tr.End(1)
	tr.Instant("c", "n", 0)
	tr.Span("c", "n", 0, 1)
	tr.OnTrack(2).Span("c", "n", 0, 1)
	tr.OnTrack(2).Instant("c", "n", 0)
	if tr.Len() != 0 {
		t.Error("nil tracer recorded something")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) != 0 {
		t.Errorf("nil tracer chrome output invalid: %v %s", err, buf.Bytes())
	}
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestRegistry: registration idempotence, value accumulation, histogram
// bucketing, nil safety, sorted text rendering.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("probe.window.submitted")
	if r.Counter("probe.window.submitted") != c {
		t.Error("re-registration returned a different counter")
	}
	c.Add(3)
	c.Inc()
	ns := r.Counter("probe.window.timeout.cost.ns")
	ns.AddDuration(1500 * time.Nanosecond)
	g := r.Gauge("probe.window.inflight.max")
	g.SetMax(4)
	g.SetMax(2) // no regression
	h := r.Histogram("probe.window.miss.wait", []time.Duration{time.Microsecond, 10 * time.Microsecond})
	h.Observe(500 * time.Nanosecond)
	h.Observe(5 * time.Microsecond)
	h.Observe(time.Second) // overflow
	if c.Value() != 4 || ns.DurationValue() != 1500*time.Nanosecond || g.Value() != 4 {
		t.Errorf("values: c=%d ns=%v g=%d", c.Value(), ns.DurationValue(), g.Value())
	}
	if h.N() != 3 || h.Sum() != time.Second+5*time.Microsecond+500*time.Nanosecond {
		t.Errorf("histogram: n=%d sum=%v", h.N(), h.Sum())
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"probe.window.submitted 4",
		"probe.window.timeout.cost.ns 1500 (1.5µs)",
		"probe.window.inflight.max 4",
		"probe.window.miss.wait count=3",
		"le(1µs)=1", "le(10µs)=1", "overflow=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics text lacks %q:\n%s", want, out)
		}
	}

	var nilReg *Registry
	nc := nilReg.Counter("x")
	nc.Add(1)
	nilReg.Gauge("y").Set(1)
	nilReg.Histogram("z", DefaultBuckets()).Observe(time.Millisecond)
	if nc.Value() != 0 {
		t.Error("nil registry counter accumulated")
	}
	if err := nilReg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryTextByteIdentity: two identically-fed registries render
// identical bytes (the map iteration is sorted away).
func TestRegistryTextByteIdentity(t *testing.T) {
	feed := func() *Registry {
		r := NewRegistry()
		for _, n := range []string{"z.last", "a.first", "m.middle", "k.ns"} {
			r.Counter(n).Add(int64(len(n)))
		}
		r.Gauge("g.b").Set(2)
		r.Gauge("g.a").Set(1)
		r.Histogram("h.x", DefaultBuckets()).Observe(3 * time.Microsecond)
		return r
	}
	var a, b bytes.Buffer
	if err := feed().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := feed().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("registry text nondeterministic:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

// TestMetricsFastPathZeroAlloc: the runtime half of the zero-allocation
// contract — the static half is sanlint's hotpath analyzer over the
// //sanlint:hotpath annotations on these methods.
func TestMetricsFastPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot.counter")
	g := r.Gauge("hot.gauge")
	h := r.Histogram("hot.hist", DefaultBuckets())
	var nilC *Counter
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(2)
		c.Inc()
		c.AddDuration(time.Microsecond)
		g.Set(7)
		g.SetMax(9)
		h.Observe(3 * time.Millisecond)
		nilC.Inc()
	}); n != 0 {
		t.Errorf("metrics fast path allocates: %v allocs/op", n)
	}
}

// TestHistogramMerge: merging a histogram that tallied on the side leaves
// what observing on the shared one directly would have, and nil on either
// side is a no-op.
func TestHistogramMerge(t *testing.T) {
	waits := []time.Duration{500 * time.Nanosecond, time.Microsecond, 5 * time.Microsecond, 3 * time.Millisecond, 2 * time.Second}
	direct, folded := NewRegistry(), NewRegistry()
	d := direct.Histogram("wait", DefaultBuckets())
	f := folded.Histogram("wait", DefaultBuckets())
	side := NewRegistry().Histogram("side", DefaultBuckets())
	d.Observe(time.Millisecond)
	f.Observe(time.Millisecond)
	for _, w := range waits {
		d.Observe(w)
		side.Observe(w)
	}
	f.Merge(side)
	f.Merge(nil)
	var nilH *Histogram
	nilH.Merge(side)
	var a, b bytes.Buffer
	if err := direct.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := folded.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("merged:\n%s\nobserved directly:\n%s", b.Bytes(), a.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on merging histograms with different buckets")
		}
	}()
	f.Merge(NewRegistry().Histogram("coarse", []time.Duration{time.Millisecond}))
}

// TestHistogramBadBounds: non-ascending bounds are a programming error.
func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on descending bounds")
		}
	}()
	NewRegistry().Histogram("bad", []time.Duration{2, 1})
}

// TestRegistryIteration: EachCounter/EachGauge visit every metric in
// sorted name order, and nil registries no-op — the contract sanmapd's
// metrics snapshot relies on.
func TestRegistryIteration(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Add(3)
	reg.Counter("a.first").Inc()
	reg.Counter("m.middle").Add(7)
	reg.Gauge("g.two").Set(2)
	reg.Gauge("g.one").Set(1)

	var cnames []string
	cvals := map[string]int64{}
	reg.EachCounter(func(n string, v int64) {
		cnames = append(cnames, n)
		cvals[n] = v
	})
	if want := []string{"a.first", "m.middle", "z.last"}; !reflect.DeepEqual(cnames, want) {
		t.Errorf("EachCounter order %v, want %v", cnames, want)
	}
	if cvals["a.first"] != 1 || cvals["m.middle"] != 7 || cvals["z.last"] != 3 {
		t.Errorf("counter values %v", cvals)
	}

	var gnames []string
	reg.EachGauge(func(n string, v int64) { gnames = append(gnames, n) })
	if want := []string{"g.one", "g.two"}; !reflect.DeepEqual(gnames, want) {
		t.Errorf("EachGauge order %v, want %v", gnames, want)
	}

	var nilReg *Registry
	nilReg.EachCounter(func(string, int64) { t.Error("nil registry visited a counter") })
	nilReg.EachGauge(func(string, int64) { t.Error("nil registry visited a gauge") })
}
