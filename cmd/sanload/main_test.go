package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sanmap/internal/genspec"
	"sanmap/internal/simnet"
	"sanmap/internal/workload"
)

// smokeOptions are the pinned flags of the load-smoke CI lane; the golden
// file was generated with exactly these (equivalently: sanload with all
// flags at their defaults).
func smokeOptions() options {
	return options{
		gen: "fattree2:8x2", pattern: "uniform", load: 0.3, msg: 512,
		duration: 500 * time.Microsecond, seed: 1, cuts: 2, top: 5, place: 8,
	}
}

// TestLoadSmokeGolden: the default run must match the checked-in golden
// report byte for byte. Regenerate after an intentional change with:
//
//	go run ./cmd/sanload > cmd/sanload/testdata/load-smoke.txt
func TestLoadSmokeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(smokeOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "load-smoke.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("report diverges from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), golden)
	}
}

// TestHealCongestionAndPlacement: the report must show the heal's cost —
// worms lost under the stale table, congestion up on the links around the
// cuts — and a placement win over identity.
func TestHealCongestionAndPlacement(t *testing.T) {
	var buf bytes.Buffer
	if err := run(smokeOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	stale := section(out, "== stale table ==")
	if !strings.Contains(stale, "lost=115") {
		t.Errorf("stale section lost no worms:\n%s", stale)
	}
	cong := line(out, "congestion on ")
	if cong == "" || !strings.Contains(cong, "+") {
		t.Errorf("no congestion increase around the cuts: %q", cong)
	}
	plc := line(out, "tasks=")
	if plc == "" || !strings.Contains(plc, "optimal=true") {
		t.Errorf("placement did not complete: %q", plc)
	}
}

// TestPlanRoundTrip: -plan-out dumps exactly the plan the run replayed —
// the file's bytes are NewPlan(the run's mix).Write.
func TestPlanRoundTrip(t *testing.T) {
	o := smokeOptions()
	o.cuts, o.place = 0, 0
	o.planOut = filepath.Join(t.TempDir(), "plan.txt")
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	res, err := genspec.Build(o.gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(o.planOut)
	if err != nil {
		t.Fatal(err)
	}
	plan := workload.NewPlan(res.Net, workload.PlanConfig{
		Pattern: workload.Uniform, Load: o.load, MsgBytes: o.msg,
		Duration: o.duration, ByteTime: simnet.DefaultTiming().ByteTime, Seed: o.seed,
	})
	var want bytes.Buffer
	if err := plan.Write(res.Net, &want); err != nil {
		t.Fatal(err)
	}
	if plan.TotalSends() == 0 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("-plan-out wrote %d bytes, NewPlan(...).Write %d bytes (%d sends)",
			len(got), want.Len(), plan.TotalSends())
	}
}

// TestRejectsBadFlags: a value no run can honour is refused as a usage
// error (exit status 2 in main) before anything is built or printed.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		flag string
		set  func(*options)
	}{
		{"-msg -5", func(o *options) { o.msg = -5 }},
		{"-msg 0", func(o *options) { o.msg = 0 }},
		{"-load -1", func(o *options) { o.load = -1 }},
		{"-duration -1ms", func(o *options) { o.duration = -time.Millisecond }},
		{"-cuts -1", func(o *options) { o.cuts = -1 }},
		{"-top -1", func(o *options) { o.top = -1 }},
		{"-place -1", func(o *options) { o.place = -1 }},
	} {
		o := smokeOptions()
		tc.set(&o)
		var buf bytes.Buffer
		err := run(o, &buf)
		if !errors.Is(err, errUsage) {
			t.Errorf("%s: run returned %v, want a usage error", tc.flag, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, tc.flag) || strings.Contains(msg, "\n") {
			t.Errorf("%s: error %q is not one line naming the flag and its value", tc.flag, msg)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: printed %q before refusing", tc.flag, buf.String())
		}
	}
	// The boundary values stay legal: no load, no horizon, no cuts, no list.
	o := smokeOptions()
	o.load, o.duration, o.cuts, o.top, o.place = 0, 0, 0, 0, 0
	if err := run(o, &bytes.Buffer{}); err != nil {
		t.Errorf("zero-valued flags: %v", err)
	}
}

// TestPlaceOneTask: -place 1 asks for nothing to optimize, which is not
// the same as having measured no traffic.
func TestPlaceOneTask(t *testing.T) {
	o := smokeOptions()
	o.cuts, o.place = 0, 1
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if got := section(buf.String(), "== placement ==\n"); got != "fewer than two tasks to place\n" {
		t.Errorf("placement section = %q", got)
	}
}

// TestScaleMillionWorms is the acceptance run: a 1024-switch fat-tree
// replays over a million worms through the full heal pipeline, twice, with
// byte-identical reports; the healed replay must congest the links around
// the cuts at least as much as the healthy one did.
func TestScaleMillionWorms(t *testing.T) {
	if testing.Short() {
		t.Skip("scale acceptance run (~25s); skipped under -short")
	}
	o := options{
		gen: "fattree2:960x1,64", pattern: "uniform", load: 0.3, msg: 512,
		duration: 11 * time.Millisecond, seed: 1, cuts: 2, top: 5, place: 8,
	}
	var a, b bytes.Buffer
	if err := run(o, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(o, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same seed, different reports at scale")
	}
	out := a.String()
	var sends int
	if _, err := sscanLine(out, "plan: ", "sends=", &sends); err != nil {
		t.Fatal(err)
	}
	if sends < 1_000_000 {
		t.Errorf("replayed %d worms, want >= 1M", sends)
	}
	cong := line(out, "congestion on ")
	if cong == "" || strings.Contains(cong, "(-") {
		t.Errorf("healed congestion below healthy on the cut-adjacent links: %q", cong)
	}
	t.Logf("%s", cong)
}

// section returns the text between the named header and the next one.
func section(out, header string) string {
	_, rest, ok := strings.Cut(out, header)
	if !ok {
		return ""
	}
	if i := strings.Index(rest, "== "); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// line returns the first line containing the marker.
func line(out, marker string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, marker) {
			return l
		}
	}
	return ""
}

// sscanLine finds the line starting with prefix and parses the integer
// following key.
func sscanLine(out, prefix, key string, dst *int) (string, error) {
	l := line(out, prefix)
	_, v, ok := strings.Cut(l, key)
	if !ok {
		return l, os.ErrNotExist
	}
	if i := strings.IndexByte(v, ' '); i >= 0 {
		v = v[:i]
	}
	n := 0
	for _, c := range v {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	*dst = n
	return l, nil
}
