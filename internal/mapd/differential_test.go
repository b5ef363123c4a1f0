package mapd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"sanmap/internal/routes"
	"sanmap/internal/topology"
)

// diffNames need every escape appendEscaped knows: the two-character ones,
// \u00XX for controls and the HTML three, the line separators, a non-ASCII
// rune that passes through, and a byte that is not UTF-8 at all.
var diffNames = []string{
	"h0", "h1", `q"uote`, `back\slash`, "lt<gt>", "amp&", "héllo",
	"bad\xffutf", "sep\u2028\u2029", "ctl\x01\b\f\t\r\n", "del\x7f",
}

// diffFabric is s0 -- s1 with the names above spread over both switches, so
// a route either stays on s0 or crosses s1, the suspect of the guarded level.
func diffFabric(t *testing.T) (*topology.Network, *routes.Table, topology.NodeID) {
	t.Helper()
	n := &topology.Network{}
	s0 := n.AddSwitch("s0")
	s1 := n.AddSwitch("s<1>&\"\xff")
	n.MustConnect(s0, 0, s1, 0)
	for i, name := range diffNames {
		sw, port := s0, 1+i/2
		if i%2 == 1 {
			sw = s1
		}
		n.MustConnect(n.AddHost(name), 0, sw, port)
	}
	tab, err := routes.Compute(n, routes.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n, tab, s1
}

// diffServers is one bare server per serving level, nil snapshot included.
// Their stop channel is closed, so inject and remap take the shutdown exit.
func diffServers(t *testing.T) map[string]*Server {
	t.Helper()
	n, tab, s1 := diffFabric(t)
	// One host cannot carry the load replay; the table is not even its own.
	lone := &topology.Network{}
	lone.MustConnect(lone.AddHost("only"), 0, lone.AddSwitch("sw"), 0)
	metrics := map[string]int64{"mapd.epoch.commits": 3, "we\"ird<&>\xff": -7, "a": 0, "mapd.wal.appends": 1 << 40}
	snaps := map[string]*Snapshot{
		"nil": nil,
		"full": {Epoch: 1, Job: 1, VClock: 1234567 * time.Nanosecond, Probes: 4321,
			Confidence: 1, Net: n, Table: tab, Metrics: metrics},
		"annotated": {Epoch: 2, Job: 3, Resumed: true, Confidence: 1e-7, Level: LevelAnnotated,
			Net: n, Table: tab, Metrics: map[string]int64{}},
		"guarded": {Epoch: 1<<63 + 5, Job: 9, Confidence: 0.8125, Partial: true, Level: LevelGuarded,
			Suspects: []string{"x", "y"}, SuspectIDs: map[topology.NodeID]bool{s1: true},
			Net: n, Table: tab},
		"tableless": {Epoch: 4, Confidence: 1e21, Level: LevelAnnotated, Net: n},
		"lone":      {Epoch: 5, Confidence: 1, Net: lone, Table: tab},
	}
	out := make(map[string]*Server)
	for name, snap := range snaps {
		s := &Server{cmds: make(chan command), stop: make(chan struct{})}
		close(s.stop)
		if snap != nil {
			s.snap.Store(snap)
		}
		out[name] = s
	}
	return out
}

// diffLines is every op and every way a line can be wrong, with route
// queries between all the names in both the form a client's json.Marshal
// produces and, where the name allows it, the canonical form spelled by hand.
func diffLines(t *testing.T) [][]byte {
	t.Helper()
	lines := []string{
		`{"op":"ping"}`, `{"op":"epoch"}`, `{"op":"topo"}`, `{"op":"metrics"}`, `{"op":"load"}`,
		`{"op":"stop"}`, `{"op":"inject","spec":"seed=5,cuts=2"}`, `{"op":"remap"}`,
		`{"op":"nope"}`, `{"op":"we\"ird<&> é"}`, `{"op":""}`, `{}`, `{"spec":"x"}`,
		`not json`, `{"op":"ping"`, `{"op":"ping"}x`, `{"op":"ping",}`, `[]`, `null`, `"ping"`, `7`,
		`{"op":"route","from":5}`, `{"op":"stop","to":[1]}`, `{"op":"ping","x":1}`,
		`{"OP":"ping"}`, `{"Op":"epoch","FROM":"h0"}`, `{"op":"ping","op":"epoch"}`,
		`{ "op" : "ping" }`, "{\"op\":\t\"epoch\"}", `{"op":"ping"}`, `{"op":"pi\ng"}`,
		`{"op":"route"}`, `{"op":"route","from":"h0"}`, `{"op":"route","to":"h1","from":"h0"}`,
		`{"to":"h1","from":"h0","op":"route","spec":""}`,
		`{"op":"route","from":"lt<gt>","to":"amp&"}`, `{"op":"route","from":"del` + "\x7f" + `","to":"h0"}`,
		`{"op":"route","from":"bad` + "\xff" + `utf","to":"h0"}`, `{"op":"route","from":"h0","to":"ctl` + "\x01" + `"}`,
		`{"op":"route","from":"héllo","to":"h1"}`,
	}
	out := make([][]byte, 0, len(lines))
	for _, l := range lines {
		out = append(out, []byte(l))
	}
	names := append([]string{"", "no-such-host"}, diffNames...)
	for _, from := range names {
		for _, to := range names {
			line, err := json.Marshal(map[string]string{"op": "route", "from": from, "to": to})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, line)
		}
	}
	return out
}

// TestRepliesByteIdenticalToMapEncoder holds the append encoder to the
// map-and-reflection serve path it replaced (oracle_test.go): every op, on
// every serving level, replies with the same bytes, the same outcome for the
// counters and the same verdict on whether the line asked to stop.
func TestRepliesByteIdenticalToMapEncoder(t *testing.T) {
	lines := diffLines(t)
	for level, s := range diffServers(t) {
		var got []byte
		for _, line := range lines {
			want, wantRes, wantReq := oracleAnswer(s, line)
			before := [3]int64{s.queries.Load(), s.refused.Load(), s.failedReads.Load()}
			var stop bool
			got, stop = s.Answer(got[:0], line)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s\n got %s want %s", level, line, got, want)
			}
			after := [3]int64{s.queries.Load(), s.refused.Load(), s.failedReads.Load()}
			wantAfter := before
			wantAfter[0]++
			if wantRes != served {
				wantAfter[wantRes]++ // refused is 1, failed is 2
			}
			if after != wantAfter {
				t.Errorf("%s: %s: counters %v -> %v, want %v", level, line, before, after, wantAfter)
			}
			if stop != (wantReq.Op == "stop") {
				t.Errorf("%s: %s: stop %v", level, line, stop)
			}
		}
	}
}

// TestRouteRepliesByteIdenticalForRawNames covers what no request line can
// carry: a host name that is not valid UTF-8 reaches the handler only as
// bytes, and the refusal text quotes the suspect switch's name.
func TestRouteRepliesByteIdenticalForRawNames(t *testing.T) {
	names := append([]string{"", "no-such-host"}, diffNames...)
	for level, s := range diffServers(t) {
		snap := s.snap.Load()
		refusals := 0
		for _, from := range names {
			for _, to := range names {
				resp := oracleRouteAnswer(snap, from, to)
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(resp); err != nil {
					t.Fatal(err)
				}
				got, res := appendRoute(nil, snap, []byte(from), []byte(to))
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("%s: %q -> %q\n got %s want %s", level, from, to, got, want.Bytes())
				}
				if res == refused {
					refusals++
				}
				if (res == served) != (resp["ok"] == true) || (res == refused) != (resp["refused"] == true) {
					t.Errorf("%s: %q -> %q: outcome %d for %v", level, from, to, res, resp)
				}
			}
		}
		if (refusals > 0) != (level == "guarded") {
			t.Errorf("%s: %d refusals", level, refusals)
		}
	}
}

// TestWorldCmdRepliesByteIdentical runs inject and remap against a stand-in
// world loop that answers as the real one does, in success and in error.
func TestWorldCmdRepliesByteIdentical(t *testing.T) {
	s := &Server{cmds: make(chan command), stop: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := range s.cmds {
			rep := cmdReply{epoch: 7, msg: fmt.Sprintf("%d fault event(s) applied <%s>", 2, c.spec)}
			if c.spec == "bad" {
				rep = cmdReply{epoch: 7, err: errors.New(`faults: bad key "b<a>d"` + "\xff")}
			}
			c.reply <- rep
		}
	}()
	for _, line := range []string{
		`{"op":"inject","spec":"seed=5,cuts=2"}`, `{"op":"inject","spec":"bad"}`,
		`{"op":"remap"}`, `{"op":"remap","spec":"bad"}`, `{"op":"inject","spec":"a\"b"}`,
	} {
		want, wantRes, _ := oracleAnswer(s, []byte(line))
		failedBefore := s.failedReads.Load()
		got, _ := s.Answer(nil, []byte(line))
		if !bytes.Equal(got, want) {
			t.Errorf("%s\n got %s want %s", line, got, want)
		}
		if (s.failedReads.Load() > failedBefore) != (wantRes == failed) {
			t.Errorf("%s: failed_reads moved %d -> %d, oracle outcome %d", line, failedBefore, s.failedReads.Load(), wantRes)
		}
	}
	close(s.cmds)
	<-done
}

// TestAppendFloatMatchesJSON pins the float rendering at its format
// boundaries; confidences live in [0, 1] but the encoder is general.
func TestAppendFloatMatchesJSON(t *testing.T) {
	for _, f := range []float64{0, 1, 0.5, 0.9, 1.0 / 3, 0.8125, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 1e-300,
		1e20, 1e21, 1.5e21, 1e100, -1, -1e-7, -2.5e30, 123456789.125, 5e-324} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("%v: got %s want %s", f, got, want)
		}
	}
}

// TestReadPathAllocatesNothing: once a snapshot's lazy reply texts exist, no
// read op allocates, whichever form its request line takes the scanner for.
func TestReadPathAllocatesNothing(t *testing.T) {
	for level, s := range diffServers(t) {
		for _, line := range []string{
			`{"op":"ping"}`, `{"op":"epoch"}`, `{"op":"topo"}`, `{"op":"metrics"}`, `{"op":"load"}`,
			`{"op":"route","from":"h0","to":"h1"}`, `{"op":"route","from":"lt<gt>","to":"amp&"}`,
			`{"op":"route","from":"h0","to":"no-such-host"}`, `{"to":"q","from":"h0","op":"route"}`,
		} {
			line := []byte(line)
			buf, _ := s.Answer(nil, line) // builds the lazy texts, sizes the buffer
			if n := testing.AllocsPerRun(100, func() { buf, _ = s.Answer(buf[:0], line) }); n != 0 {
				t.Errorf("%s: %s: %v allocs per query", level, line, n)
			}
		}
	}
}
