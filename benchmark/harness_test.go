package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"sanmap/internal/routes"
)

// tinyRun runs all five workloads at -scale tiny and returns the report and
// the result file.
func tinyRun(t *testing.T, trace int) (string, *resultFile) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "results.json")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-scale", "tiny", "-seconds", "0.1", "-trace", fmt.Sprint(trace), "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	file, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result file, want %d", len(file.Workloads), len(workloads))
	}
	return stdout.String(), file
}

// sections splits a report into its per-workload parts.
func sections(report string) map[string]string {
	out := make(map[string]string)
	for _, part := range strings.Split(report, "\n== ")[1:] {
		name, _, _ := strings.Cut(part, ":")
		out[name] = part
	}
	return out
}

// printedOnce reports whether exactly one line of section starts with the
// metric's name and carries its unit.
func printedOnce(section, name, unit string) bool {
	n := 0
	for _, line := range strings.Split(section, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == name && f[2] == unit {
			n++
		}
	}
	return n == 1
}

func TestTinyEndToEnd(t *testing.T) {
	report, file := tinyRun(t, 0)
	d, err := loadDecl("BENCHMARK.json") // realMain has changed into the module root
	if err != nil {
		t.Fatal(err)
	}
	secs := sections(report)
	for _, res := range file.Workloads {
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", res.Workload, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		for _, m := range d.EndToEnd {
			if !printedOnce(secs[res.Workload], m.Name, m.Unit) {
				t.Errorf("%s: %s [%s] is not printed exactly once", res.Workload, m.Name, m.Unit)
			}
			if got := res.find(m.Name); got == nil || got.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is missing or zero", res.Workload, m.Name)
			}
		}
		if !printedOnce(secs[res.Workload], "fail_share", namedMetrics["fail_share"].unit) {
			t.Errorf("%s: fail_share is not printed exactly once", res.Workload)
		}
		var line struct {
			Correct   *bool
			Attempted *int64
			Failed    *int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(res.contractLine(d, false)), &line); err != nil {
			t.Fatalf("%s: contract line: %v", res.Workload, err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(d.EndToEnd) {
			t.Errorf("%s: contract line lacks a key: %s", res.Workload, res.contractLine(d, false))
		}
	}
	last := report[strings.LastIndex(strings.TrimSpace(report), "\n")+1:]
	if !json.Valid([]byte(last)) {
		t.Errorf("last line of the report is not JSON: %q", last)
	}
}

func TestTinyPerLayer(t *testing.T) {
	report, file := tinyRun(t, 1)
	d, err := loadDecl("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	secs := sections(report)
	seen := make(map[string]bool)
	for _, res := range file.Workloads {
		if !res.Correct {
			t.Errorf("%s: %v", res.Workload, res.Failures)
		}
		for _, m := range res.Metrics {
			seen[m.Name] = true
			if !printedOnce(secs[res.Workload], m.Name, d.perLayer[m.Name].Unit) {
				t.Errorf("%s: %s is not printed exactly once with its unit", res.Workload, m.Name)
			}
		}
		for _, name := range []string{"trace.coverage", "trace.overhead_pct"} {
			if res.find(name) == nil {
				t.Errorf("%s: %s is missing", res.Workload, name)
			}
		}
		var line struct {
			Metrics map[string]json.RawMessage
		}
		if err := json.Unmarshal([]byte(res.contractLine(d, true)), &line); err != nil || len(line.Metrics) != len(d.PerLayer) {
			t.Errorf("%s: traced contract line has %d metrics, want %d (%v)", res.Workload, len(line.Metrics), len(d.PerLayer), err)
		}
	}
	// Every declared per-layer metric gets a value from at least one workload.
	for _, m := range d.PerLayer {
		if !seen[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload reports it", m.Name)
		}
	}
}

// A route reply that does not deliver on the true fabric must count as a
// failure.
func TestWrongRouteCountsAsFailure(t *testing.T) {
	b := &bench{opt: options{seed: 1}, res: &results{}}
	tr, err := b.newTruth("now-c", nil)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := routes.Compute(tr.net, routes.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	from, to, other := tr.hosts[0], tr.hosts[1], tr.hosts[len(tr.hosts)-1]
	right, _ := tab.Route(tr.net.Lookup(from), tr.net.Lookup(to))
	wrong, _ := tab.Route(tr.net.Lookup(from), tr.net.Lookup(other))
	if right.Equal(wrong) {
		t.Fatal("test needs two different routes")
	}
	replyWith := func(route string) string {
		return fmt.Sprintf(`{"epoch":1,"from":%q,"hops":3,"ok":true,"op":"route","route":%q,"to":%q}`, from, route, to)
	}
	b.verifyRoute(tr, replyWith(right.String()))
	if b.res.Failed != 0 {
		t.Fatalf("correct route counted as a failure: %v", b.res.Failures)
	}
	b.verifyRoute(tr, replyWith(wrong.String()))
	b.verifyRoute(tr, `{"ok":false,"op":"route","error":"no route"}`)
	if b.res.Failed != 2 {
		t.Fatalf("wrong route and refused reply counted %d failures, want 2", b.res.Failed)
	}
}

func TestJudge(t *testing.T) {
	timed := func(v, q1, q3 float64) *metric {
		return &metric{Better: "lower", Bound: 0.10, Value: v, Q1: q1, Q3: q3}
	}
	for _, c := range []struct {
		name string
		a, b *metric
		want string
	}{
		{"same", timed(100, 99, 101), timed(104, 103, 105), verdictOK},
		{"slower", timed(100, 99, 101), timed(115, 114, 116), verdictRegressed},
		{"noisy", timed(100, 90, 110), timed(115, 114, 116), verdictUnresolved},
		{"higher is better", &metric{Better: "higher", Bound: 0.10, Value: 100, Q1: 99, Q3: 101}, timed(85, 84, 86), verdictRegressed},
		{"exact equal", &metric{Exact: true, Value: 7}, &metric{Exact: true, Value: 7}, verdictOK},
		{"exact differs", &metric{Exact: true, Value: 7}, &metric{Exact: true, Value: 8}, verdictMismatch},
		{"no bound", &metric{Better: "lower", Value: 1}, &metric{Value: 9}, verdictOK},
	} {
		if _, got := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because that is how the spread across runs is judged.
func TestQuartilesMatchPython(t *testing.T) {
	med, q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if med != 5.5 || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v %v %v, want 5.5 2.75 8.25", med, q1, q3)
	}
	med, q1, q3 = quartiles([]float64{3, 1, 2})
	if med != 2 || q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3: %v %v %v, want 2 1 3", med, q1, q3)
	}
}
