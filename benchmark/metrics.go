package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// declMetric is one metric as BENCHMARK.json declares it.
type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// decl is the part of BENCHMARK.json the harness obeys: it prints exactly
// the declared metrics, with the declared units, so the two cannot drift.
type decl struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
	perLayer map[string]declMetric
	endToEnd map[string]declMetric
}

func loadDecl(path string) (*decl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &decl{perLayer: map[string]declMetric{}, endToEnd: map[string]declMetric{}}
	if err := json.Unmarshal(data, d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range d.EndToEnd {
		d.endToEnd[m.Name] = m
	}
	for _, m := range d.PerLayer {
		d.perLayer[m.Name] = m
	}
	return d, nil
}

// namedMetric is one of the user-facing quantities the issue defines by
// name. A workload reports the ones it exercises; the contract's generic
// end-to-end metrics (latency_ms, tail_ms, throughput) are
// derived from them per workload — see README.md for the mapping.
type namedMetric struct {
	unit, better string
	bound        float64 // allowed worsening as a share of the median
	exact        bool    // simulated or counted: repeats bit-for-bit on one seed
}

var namedMetrics = map[string]namedMetric{
	"query_qps":           {"1/s", "higher", 0.10, false},
	"query_p50_us":        {"us", "lower", 0.10, false},
	"query_p99_us":        {"us", "lower", 0.15, false},
	"heal_ms":             {"ms", "lower", 0.10, false},
	"cold_start_ms":       {"ms", "lower", 0.10, false},
	"restart_ms":          {"ms", "lower", 0.10, false},
	"daemon_rss_mb":       {"MB", "lower", 0.10, false},
	"map_sweep_ms":        {"ms", "lower", 0.10, false},
	"map_probes":          {"count", "lower", 0, true},
	"map_sim_ms":          {"virtual-ms", "lower", 0, true},
	"paper_probe_err_pct": {"%", "lower", 0, true},
	"report_s":            {"s", "lower", 0.10, false},
	"sim_delivered_ppm":   {"ppm", "higher", 0, true},
	"sim_p99_latency_ns":  {"virtual-ns", "lower", 0, true},
	"fail_share":          {"failed/att", "lower", 0, true},
	// host_speed is the calibration kernel's reading (calib.go): 1.0 is
	// reference speed. The named timings above are raw; the end-to-end
	// metrics are scaled by it.
	"host_speed": {"ratio", "higher", 0, false},
}

// metric is one reported quantity: the median of its samples (the fast
// quartile for an end-to-end metric, see e2e) with the quartiles and the
// sample count beside it.
type metric struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"` // end_to_end, per_layer or named
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Exact  bool    `json:"exact"`
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// results is one workload's outcome.
type results struct {
	Workload  string    `json:"workload"`
	Why       string    `json:"why"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Metrics   []*metric `json:"metrics"`
}

func (r *results) find(name string) *metric {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// contractLine renders the object the driver reads from the last line of
// standard output: every end-to-end metric untraced, every per-layer metric
// traced. A per-layer metric the workload does not exercise reads 0, which
// is the "no change predicted here" half of the interaction table.
func (r *results) contractLine(d *decl, trace bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]val{}}
	list := d.EndToEnd
	if trace {
		list = d.PerLayer
	}
	for _, dm := range list {
		v := val{Unit: dm.Unit}
		if m := r.find(dm.Name); m != nil {
			v.Value = m.Value
		}
		out.Metrics[dm.Name] = v
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(line)
}

// bench is one workload run: its inputs, the children it owns, what it has
// attempted and what it has measured.
type bench struct {
	ctx    context.Context
	opt    options
	sz     sizes
	decl   *decl
	runDir string
	stdout io.Writer
	wl     workloadSpec

	tr  *recorder // nil when untraced
	spd speedometer
	res *results
	err error // first misuse of the metric tables; fails the run

	stateSeq int
}

// execute runs the workload and prints its report.
func (b *bench) execute() (*results, error) {
	b.res = &results{Workload: b.wl.name, Why: b.wl.why}
	if b.opt.trace {
		b.tr = newRecorder()
	}
	fmt.Fprintf(b.stdout, "\n== %s: %s\n", b.wl.name, b.wl.why)
	if err := b.wl.run(b); err != nil {
		return nil, err
	}
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	if b.res.Attempted < 1 {
		return nil, fmt.Errorf("workload attempted nothing")
	}
	b.named("fail_share", float64(b.res.Failed)/float64(b.res.Attempted))
	b.named("host_speed", b.spd.all...)
	b.layer("host.speed", b.spd.all...)
	if b.err != nil {
		return nil, b.err
	}
	b.res.Correct = b.res.Failed == 0
	if b.tr != nil {
		if err := b.tr.writeChrome(b.wl.name); err != nil {
			return nil, err
		}
	}
	b.orderMetrics()
	b.report()
	return b.res, nil
}

// attempt counts n operations whose outcome the harness checks.
func (b *bench) attempt(n int) { b.res.Attempted += int64(n) }

// fail counts one failed operation: ok:false, refused, error, wrong answer,
// non-isomorphic map, non-zero exit or a broken invariant all land here.
func (b *bench) fail(format string, args ...any) {
	b.res.Failed++
	if len(b.res.Failures) < 8 {
		b.res.Failures = append(b.res.Failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) add(m *metric, vals []float64) {
	if len(vals) == 0 {
		return
	}
	if b.res.find(m.Name) != nil {
		b.misuse("metric %s recorded twice", m.Name)
		return
	}
	m.Value, m.Q1, m.Q3 = quartiles(vals)
	m.N = len(vals)
	b.res.Metrics = append(b.res.Metrics, m)
}

func (b *bench) misuse(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// e2e records one of BENCHMARK.json's end-to-end metrics (untraced runs) from
// its reading on every repetition, and reports their fast quartile: the first
// for a time, the third for a rate. The shared host only ever slows a
// repetition, in bursts of a fraction of a second to minutes that no
// calibration tracks, so the quarter of the run that met the least of it says
// most about the program: over sets of eight runs the fast quartile of
// serve-steady's segments spread by 7 % where their median spread by 21 %
// (README.md). The named metrics beside them stay medians.
func (b *bench) e2e(name string, vals ...float64) {
	if b.opt.trace {
		return
	}
	d, ok := b.decl.endToEnd[name]
	if !ok {
		b.misuse("end-to-end metric %s is not declared in BENCHMARK.json", name)
		return
	}
	m := &metric{Name: name, Kind: "end_to_end", Unit: d.Unit, Better: d.Better, Bound: d.Bound}
	b.add(m, vals)
	if m.Value = m.Q1; d.Better == "higher" {
		m.Value = m.Q3
	}
}

// named records one of the issue's named user-facing metrics.
func (b *bench) named(name string, vals ...float64) {
	if b.opt.trace {
		return // end-to-end numbers always come from the untraced run
	}
	d, ok := namedMetrics[name]
	if !ok {
		b.misuse("named metric %s is not in the table", name)
		return
	}
	b.add(&metric{Name: name, Kind: "named", Unit: d.unit, Better: d.better, Bound: d.bound, Exact: d.exact}, vals)
}

// layer records one of BENCHMARK.json's per-layer metrics (traced runs).
func (b *bench) layer(name string, vals ...float64) {
	if !b.opt.trace {
		return
	}
	d, ok := b.decl.perLayer[name]
	if !ok {
		b.misuse("per-layer metric %s is not declared in BENCHMARK.json", name)
		return
	}
	b.add(&metric{Name: name, Kind: "per_layer", Unit: d.Unit, Better: d.Better}, vals)
}

// refScale is the run's median host speed (calib.go): what a raw host time
// is multiplied by to read at reference speed. The end-to-end times are
// scaled per repetition; span times and one-off readings of a traced run
// take this one factor.
func (b *bench) refScale() float64 {
	if len(b.spd.all) == 0 {
		return 1
	}
	return medianOf(b.spd.all)
}

// ref expresses raw host times at reference speed.
func (b *bench) ref(vals ...float64) []float64 { return scale(vals, b.refScale()) }

// selfMs is the recorder's per-span self times at reference speed.
func (b *bench) selfMs() map[string][]float64 {
	self := b.tr.selfMs()
	for name, ms := range self {
		self[name] = b.ref(ms...)
	}
	return self
}

// orderMetrics puts the metrics in BENCHMARK.json's order (named ones, which
// it does not declare, stay in the order the workload recorded them), so that
// two reports line up whatever order the spans were folded in.
func (b *bench) orderMetrics() {
	kind := map[string]int{"end_to_end": 0, "named": 1, "per_layer": 2}
	rank := make(map[string]int)
	for i, m := range b.decl.EndToEnd {
		rank[m.Name] = i
	}
	for i, m := range b.decl.PerLayer {
		rank[m.Name] = i
	}
	sort.SliceStable(b.res.Metrics, func(i, j int) bool {
		x, y := b.res.Metrics[i], b.res.Metrics[j]
		if x.Kind != y.Kind {
			return kind[x.Kind] < kind[y.Kind]
		}
		return rank[x.Name] < rank[y.Name]
	})
}

// report prints every metric by name with its unit, quartiles and sample
// count; the value is the median unless noted.
func (b *bench) report() {
	w := b.stdout
	fmt.Fprintf(w, "%-34s %14s %-10s %14s %14s %7s\n", "metric", "value", "unit", "q1", "q3", "n")
	for _, m := range b.res.Metrics {
		note := ""
		switch {
		case m.Exact:
			note = " exact"
		case m.Kind == "end_to_end" && m.N > 1:
			note = " fast quartile"
		}
		fmt.Fprintf(w, "%-34s %14.6g %-10s %14.6g %14.6g %7d%s\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N, note)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", b.res.Attempted, b.res.Failed, b.res.Failed == 0)
	for _, f := range b.res.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

// repeat is every workload's measuring loop: one repetition after another
// until the window closes, always finishing the one it is in and never fewer
// than two. In a traced run every other repetition is recorded on tk and
// returned apart, so that the two halves give the tracing overhead, and the
// window is tracedShare of -seconds, the rest of the run going to the
// in-process replica. In an untraced run tk is nil and traced stays empty.
func repeat[T any](b *bench, tk *track, tracedShare float64, rep func(n int, t *track) (T, error)) (plain, traced []T, err error) {
	share := 1.0
	if tk != nil {
		share = tracedShare
	}
	end := time.Now().Add(time.Duration(b.opt.seconds * share * float64(time.Second)))
	for n := 0; b.ctx.Err() == nil && (time.Now().Before(end) || len(plain) < 2); n++ {
		var t *track
		if n%2 == 1 {
			t = tk
		}
		v, err := rep(n, t)
		if err != nil {
			return nil, nil, err
		}
		if t != nil {
			traced = append(traced, v)
		} else {
			plain = append(plain, v)
		}
	}
	return plain, traced, b.ctx.Err()
}

// quartiles returns the median and the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them (exclusive method), so the
// spread printed here is the spread the driver computes across runs.
func quartiles(vals []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return median(s), cut(1), cut(3)
}

// median of an already sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(vals []float64) float64 {
	m, _, _ := quartiles(vals)
	return m
}

// percentile returns the p-th percentile (nearest rank) of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// upperQuartile is the tail of a workload with a few dozen repetitions at
// most: a run has too few for a p90, and the slowest one is mostly the
// sandbox's noise.
func upperQuartile(vals []float64) float64 {
	_, _, q3 := quartiles(vals)
	return q3
}

func scale(vals []float64, k float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * k
	}
	return out
}

// scaleInv returns k/v for every v.
func scaleInv(vals []float64, k float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = k / v
	}
	return out
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

// firstLine trims a child's output for an error message.
func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
