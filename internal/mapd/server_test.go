package mapd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"sanmap/internal/obs"
	"sanmap/internal/routes"
	"sanmap/internal/topology"
)

// joinTimeout bounds how long a closed server may stay in Run. A server
// still there after it is deadlocked, and so will be every later test that
// starts one, so the join panics with every goroutine's stack rather than
// leaving go test to time out ten minutes later.
const joinTimeout = 10 * time.Second

// startServer builds and runs an in-process server, returning it plus a
// join function that stops it and surfaces Run's error.
func startServer(t *testing.T, cfg Config) (*Server, func()) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()
	return srv, func() {
		srv.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Run: %v", err)
			}
		case <-time.After(joinTimeout):
			debug.SetTraceback("all")
			panic(fmt.Sprintf("%s: server (gen %s, listen %v, state %s) still in Run %v after Close",
				t.Name(), cfg.Gen, srv.Addr(), cfg.StateDir, joinTimeout))
		}
	}
}

// waitSnap blocks until the server publishes its first serving snapshot.
func waitSnap(t *testing.T, srv *Server) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if snap := srv.Snapshot(); snap != nil {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never published a snapshot")
	return nil
}

func dialServer(t *testing.T, srv *Server) *Client {
	t.Helper()
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestServerServesQueries(t *testing.T) {
	srv, join := startServer(t, Config{Gen: "now-c", Seed: 1, Listen: "127.0.0.1:0"})
	defer join()
	waitSnap(t, srv)
	cl := dialServer(t, srv)

	ping, err := cl.Call(map[string]any{"op": "ping"})
	if err != nil {
		t.Fatal(err)
	}
	if ping["ok"] != true {
		t.Fatalf("ping: %v", ping)
	}

	ep, err := cl.Call(map[string]any{"op": "epoch"})
	if err != nil {
		t.Fatal(err)
	}
	if ep["ok"] != true || ep["epoch"].(float64) != 1 || ep["level"] != "full" {
		t.Fatalf("epoch: %v", ep)
	}

	topoResp, err := cl.Call(map[string]any{"op": "topo"})
	if err != nil {
		t.Fatal(err)
	}
	if topoResp["ok"] != true || topoResp["hosts"].(float64) <= 0 {
		t.Fatalf("topo: %v", topoResp)
	}

	// A route between two real hosts of the served snapshot.
	snap := srv.Snapshot()
	hosts := snap.Net.Hosts()
	if len(hosts) < 2 {
		t.Fatalf("only %d hosts", len(hosts))
	}
	from, to := snap.Net.NameOf(hosts[0]), snap.Net.NameOf(hosts[len(hosts)-1])
	route, err := cl.Call(map[string]any{"op": "route", "from": from, "to": to})
	if err != nil {
		t.Fatal(err)
	}
	if route["ok"] != true || route["route"] == "" {
		t.Fatalf("route %s->%s: %v", from, to, route)
	}
	if _, degraded := route["degraded"]; degraded {
		t.Fatalf("clean epoch served degraded: %v", route)
	}

	bad, err := cl.Call(map[string]any{"op": "route", "from": from, "to": "no-such-host"})
	if err != nil {
		t.Fatal(err)
	}
	if bad["ok"] != false {
		t.Fatalf("unknown host accepted: %v", bad)
	}

	met, err := cl.Call(map[string]any{"op": "metrics"})
	if err != nil {
		t.Fatal(err)
	}
	if met["ok"] != true {
		t.Fatalf("metrics: %v", met)
	}
	mm := met["metrics"].(map[string]any)
	if mm["mapd.epoch.commits"].(float64) != 1 {
		t.Fatalf("commit counter: %v", mm)
	}
}

// TestServerInjectHeals: a client-driven structural fault raises
// suspicion, the continuous remap loop heals, and the epoch advances —
// while the query side keeps serving throughout.
func TestServerInjectHeals(t *testing.T) {
	srv, join := startServer(t, Config{Gen: "now-c", Seed: 1, Listen: "127.0.0.1:0"})
	defer join()
	cl := dialServer(t, srv)

	// Concurrent readers hammer route queries through the inject+heal
	// window; none may observe a failed read (refusals are acceptable —
	// they are the guarded ladder working — but there is no window with
	// no snapshot).
	stop := make(chan struct{})
	var readers sync.WaitGroup
	snap := waitSnap(t, srv)
	hosts := snap.Net.Hosts()
	from, to := snap.Net.NameOf(hosts[0]), snap.Net.NameOf(hosts[len(hosts)-1])
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rcl, err := Dial(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer rcl.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := rcl.Call(map[string]any{"op": "route", "from": from, "to": to})
				if err != nil {
					t.Error(err)
					return
				}
				if resp["epoch"] == nil {
					t.Errorf("route served without an epoch: %v", resp)
					return
				}
			}
		}()
	}

	inj, err := cl.Call(map[string]any{"op": "inject", "spec": "seed=5,cuts=2"})
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()
	if inj["ok"] != true {
		t.Fatalf("inject: %v", inj)
	}
	if got := inj["epoch"].(float64); got < 2 {
		t.Fatalf("inject did not heal to a new epoch: %v", inj)
	}
	if srv.failedReads.Load() != 0 {
		t.Fatalf("%d failed reads during heal", srv.failedReads.Load())
	}

	// The remap op always produces a fresh epoch on demand.
	before := srv.Store().Latest().Number
	rm, err := cl.Call(map[string]any{"op": "remap"})
	if err != nil {
		t.Fatal(err)
	}
	if rm["ok"] != true || uint64(rm["epoch"].(float64)) != before+1 {
		t.Fatalf("remap from epoch %d: %v", before, rm)
	}
}

// TestServerRestartServesPreviousEpoch: a fresh server over an existing
// state dir serves the recovered epoch to its very first client, before
// any remapping. The client dials the instant Addr() is known, while Run is
// still starting, and the loop gives the scheduler many chances to let it
// win a race against the publish, if there is one.
func TestServerRestartServesPreviousEpoch(t *testing.T) {
	dir := t.TempDir()
	srv, join := startServer(t, Config{Gen: "now-c", Seed: 1, StateDir: dir, Once: true})
	join()
	if srv.Store().Latest() == nil {
		t.Fatal("no epoch committed")
	}

	for i := 0; i < 25; i++ {
		srv2, join2 := startServer(t, Config{Gen: "now-c", Seed: 1, StateDir: dir, Listen: "127.0.0.1:0"})
		ep, err := dialServer(t, srv2).Call(map[string]any{"op": "epoch"})
		if err != nil {
			t.Fatal(err)
		}
		if ep["ok"] != true || ep["epoch"].(float64) != 1 {
			t.Fatalf("restart %d: recovered epoch: %v", i, ep)
		}
		if srv2.Store().NextJobID() < 2 {
			t.Fatalf("job IDs restarted: next %d", srv2.Store().NextJobID())
		}
		join2()
	}
}

// TestShutdownBesideDials: clients keep connecting while the server starts
// and shuts down, so connections are accepted before, during and after
// shutdown marks the server closed. Each is served or dropped, and Run
// returns on every life. track and shutdown share conns and closed under
// the server's one mutex; the race lane turns an access outside it into a
// failure.
func TestShutdownBesideDials(t *testing.T) {
	dir := t.TempDir()
	sock := dir + "/sock"
	for life := 0; life < 20; life++ {
		_, join := startServer(t, Config{Gen: "now-c", Seed: 1, StateDir: dir, Listen: "unix:" + sock})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if c, err := net.Dial("unix", sock); err == nil {
						c.Close()
					}
				}
			}()
		}
		// Not a wait: staggering the shutdown lands it at different points
		// of start-up and accepting across lives.
		time.Sleep(time.Duration(life%5) * time.Millisecond)
		join()
		close(stop)
		wg.Wait()
	}
}

// TestStopRepliesBeforeClosing: the stop op's reply reaches the client on
// every one of 100 consecutive daemon lives, although serving it shuts the
// server down and shutdown closes the connection. Four such sequences run
// side by side: the reply used to be lost only when the world loop got
// scheduled between the shutdown request and the write, and a busy
// scheduler makes that window wide enough to hit.
func TestStopRepliesBeforeClosing(t *testing.T) {
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		dir := t.TempDir()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Lives after the first recover epoch 1 instead of mapping.
				srv, err := New(Config{Gen: "now-c", Seed: 1, StateDir: dir, Listen: "unix:" + dir + "/sock", Metrics: obs.NewRegistry()})
				if err != nil {
					t.Error(err)
					return
				}
				done := make(chan error, 1)
				go func() { done <- srv.Run() }()
				conn, err := net.Dial("unix", dir+"/sock")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := conn.Write([]byte(`{"op":"stop"}` + "\n")); err != nil {
					t.Error(err)
				}
				reply, err := io.ReadAll(conn) // the daemon closes the connection after replying
				conn.Close()
				if got := strings.TrimSpace(string(reply)); got != `{"ok":true,"op":"stop"}` {
					t.Errorf("life %d: stop reply %q (read error %v)", i, got, err)
				}
				if err := <-done; err != nil {
					t.Errorf("life %d: Run: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRouteAnswerDegradationLadder drives routeAnswer against crafted
// snapshots: annotated serving stamps confidence, guarded serving refuses
// exactly the routes crossing suspect nodes and serves the rest.
func TestRouteAnswerDegradationLadder(t *testing.T) {
	// h0 -- s0 -- s1 -- h1, plus h2 on s0: h0->h2 avoids s1.
	n := &topology.Network{}
	s0 := n.AddSwitch("s0")
	s1 := n.AddSwitch("s1")
	h0 := n.AddHost("h0")
	h1 := n.AddHost("h1")
	h2 := n.AddHost("h2")
	n.MustConnect(h0, 0, s0, 0)
	n.MustConnect(s0, 1, s1, 1)
	n.MustConnect(s1, 2, h1, 0)
	n.MustConnect(s0, 3, h2, 0)
	tab, err := routes.Compute(n, routes.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{
		Epoch: 3, Confidence: 0.9, Level: LevelGuarded,
		SuspectIDs: map[topology.NodeID]bool{s1: true},
		Net:        n, Table: tab,
	}

	// route decodes one typed reply the way a client would.
	route := func(snap *Snapshot, from, to string) (map[string]any, outcome) {
		t.Helper()
		line, res := appendRoute(nil, snap, []byte(from), []byte(to))
		return decodeReply(t, line), res
	}

	crossing, res := route(snap, "h0", "h1")
	if res != refused || crossing["ok"] != false || crossing["refused"] != true {
		t.Fatalf("route across suspect not refused (outcome %d): %v", res, crossing)
	}
	if crossing["error"] != "route crosses suspect node s1" {
		t.Fatalf("refusal does not name the suspect: %v", crossing)
	}
	clean, res := route(snap, "h0", "h2")
	if res != served || clean["ok"] != true {
		t.Fatalf("clean route refused at guarded level (outcome %d): %v", res, clean)
	}
	if clean["degraded"] != "guarded" || clean["confidence"].(float64) != 0.9 {
		t.Fatalf("guarded response not annotated: %v", clean)
	}
	if clean["route"] != "+3" || clean["hops"].(float64) != 2 {
		t.Fatalf("h0->h2 is one turn over two wires: %v", clean)
	}

	snap.Level = LevelAnnotated
	snap.SuspectIDs = nil
	ann, res := route(snap, "h0", "h1")
	if res != served || ann["ok"] != true || ann["degraded"] != "annotated" {
		t.Fatalf("annotated response (outcome %d): %v", res, ann)
	}

	snap.Level = LevelFull
	full, res := route(snap, "h0", "h1")
	if res != served || full["ok"] != true {
		t.Fatalf("full response (outcome %d): %v", res, full)
	}
	if _, deg := full["degraded"]; deg {
		t.Fatalf("full-level response annotated: %v", full)
	}
	if unknown, res := route(snap, "h0", "h9"); res != failed || unknown["error"] != "unknown host" {
		t.Fatalf("unknown host (outcome %d): %v", res, unknown)
	}

	if none, res := route(nil, "h0", "h1"); res != failed || none["ok"] != false {
		t.Fatalf("nil snapshot served (outcome %d): %v", res, none)
	}
}

// decodeReply parses one reply line as a client would.
func decodeReply(t *testing.T, line []byte) map[string]any {
	t.Helper()
	if len(line) == 0 || line[len(line)-1] != '\n' {
		t.Fatalf("reply is not one terminated line: %q", line)
	}
	var out map[string]any
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatalf("reply %q: %v", line, err)
	}
	return out
}

// TestServerMapperOverride: -mapper picks the session host; a bogus name
// or a switch is a construction error, not a silent fallback or a panic.
func TestServerMapperOverride(t *testing.T) {
	for _, name := range []string{"no-such-host", "C-L0"} {
		if _, err := New(Config{Gen: "now-c", Seed: 1, StateDir: t.TempDir(),
			Mapper: name, Metrics: obs.NewRegistry()}); err == nil {
			t.Errorf("-mapper %s accepted", name)
		}
	}
}

// TestNegativeDepthRefused: -depth -3 is an error naming the flag, from
// both the command line and New, not a silent "derive Q+D"; 0 still
// derives it.
func TestNegativeDepthRefused(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := Main([]string{"-gen", "now-c", "-state", t.TempDir(), "-depth", "-3", "-once"}, &stdout, &stderr); code != 2 {
		t.Errorf("sanmapd -depth -3 exited %d, want 2", code)
	}
	if got := stderr.String(); !strings.Contains(got, "-depth") || strings.Count(got, "\n") != 1 || stdout.Len() != 0 {
		t.Errorf("sanmapd -depth -3: stdout %q, stderr %q; want one stderr line naming -depth", stdout.String(), got)
	}
	_, err := New(Config{Gen: "now-c", Seed: 1, StateDir: t.TempDir(), Depth: -3, Metrics: obs.NewRegistry()})
	if err == nil || !strings.Contains(err.Error(), "-depth") {
		t.Errorf("New with Depth -3: err %v, want one naming -depth", err)
	}
	srv, err := New(Config{Gen: "now-c", Seed: 1, StateDir: t.TempDir(), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if w := srv.w; w.depth != w.topo.DepthBound(w.h0)+w.topo.NumSwitches() {
		t.Errorf("Depth 0: depth %d, want Q+D %d plus the %d-switch margin", w.depth, w.topo.DepthBound(w.h0), w.topo.NumSwitches())
	}
}

// TestSplitListen covers the -listen grammar.
func TestSplitListen(t *testing.T) {
	cases := []struct{ in, nw, addr string }{
		{"unix:/tmp/x.sock", "unix", "/tmp/x.sock"},
		{"/tmp/y.sock", "unix", "/tmp/y.sock"},
		{"127.0.0.1:0", "tcp", "127.0.0.1:0"},
		{"localhost:9999", "tcp", "localhost:9999"},
	}
	for _, c := range cases {
		nw, addr := splitListen(c.in)
		if nw != c.nw || addr != c.addr {
			t.Errorf("splitListen(%q) = %q,%q want %q,%q", c.in, nw, addr, c.nw, c.addr)
		}
	}
}

// TestLoadQuery: the load op replays the canned plan over the served
// epoch's routes, reports quality, answers identically on repeat (the
// replay is cached on the snapshot), and degrades gracefully when no
// table exists.
func TestLoadQuery(t *testing.T) {
	srv, join := startServer(t, Config{Gen: "now-c", Seed: 1, Listen: "127.0.0.1:0"})
	defer join()
	waitSnap(t, srv)
	cl := dialServer(t, srv)

	q, err := cl.Call(map[string]any{"op": "load"})
	if err != nil {
		t.Fatal(err)
	}
	if q["ok"] != true || q["deadlock_free"] != true {
		t.Fatalf("load: %v", q)
	}
	if q["sent"].(float64) <= 0 || q["delivered"].(float64) <= 0 {
		t.Fatalf("load replayed no traffic: %v", q)
	}
	if q["throughput_bps"].(float64) <= 0 || q["p50_ns"].(float64) <= 0 {
		t.Fatalf("load quality empty: %v", q)
	}
	if _, degraded := q["degraded"]; degraded {
		t.Fatalf("clean epoch served degraded load report: %v", q)
	}

	again, err := cl.Call(map[string]any{"op": "load"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"sent", "delivered", "p50_ns", "peak_util_ppm", "makespan_ns"} {
		if q[k] != again[k] {
			t.Errorf("load %s changed between queries: %v -> %v", k, q[k], again[k])
		}
	}

	// Tableless snapshot: the answer is an error, not a panic.
	if line, res := (&Snapshot{Epoch: 9}).buildLoadReply(); res != failed || decodeReply(t, line)["ok"] != false {
		t.Errorf("tableless snapshot served a load report: %s", line)
	}
	bare := &Server{}
	if line, _ := bare.Answer(nil, []byte(`{"op":"load"}`)); decodeReply(t, line)["ok"] != false || bare.failedReads.Load() != 1 {
		t.Errorf("nil snapshot served a load report: %s", line)
	}
}

// TestFencedCommitKeepsSnapshotAndJoinsBuilder: a commit that loses the
// fencing race to another committer leaves the served snapshot alone,
// discharges its job file, and returns only once the goroutine building its
// snapshot has finished. The builder is slowed so that a commit that did
// not join it would return first; the race lane also flags the unguarded
// read of finished if it did.
func TestFencedCommitKeepsSnapshotAndJoinsBuilder(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Gen: "now-c", Seed: 1, StateDir: dir, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	w := srv.w // this goroutine plays the world loop
	if err := w.converge(w.recoverEpoch()); err != nil {
		t.Fatal(err)
	}
	before := srv.Snapshot()
	if before == nil || before.Epoch != 1 {
		t.Fatalf("snapshot after the initial map: %+v", before)
	}

	// A rival process commits epoch 2 first.
	rival, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ep1 := rival.Latest()
	if err := rival.Commit(&Epoch{EpochMeta: EpochMeta{Number: 2, Parent: 1, Job: 99, Confidence: 1},
		NetText: ep1.NetText, Checkpoint: ep1.Checkpoint}); err != nil {
		t.Fatal(err)
	}

	finished, builds := false, 0
	w.build = func(meta EpochMeta, text []byte) (*Snapshot, error) {
		builds++
		time.Sleep(50 * time.Millisecond)
		snap, err := buildSnapshot(meta, text)
		finished = true
		return snap, err
	}
	if _, err := w.inject("seed=5,cuts=2"); err != nil {
		t.Fatal(err)
	}
	if err := w.heal(nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("heal against a rival's epoch 2: %v, want ErrFenced", err)
	}
	if builds != 1 || !finished {
		t.Fatalf("fenced commit returned with %d build(s) started, finished %v; want 1 finished", builds, finished)
	}
	if srv.Snapshot() != before {
		t.Fatalf("fenced commit replaced the served snapshot: epoch %d", srv.Snapshot().Epoch)
	}
	if jobs := srv.Store().jobFiles(); len(jobs) != 0 {
		t.Fatalf("fenced job left its file: %v", jobs)
	}
}

// TestSnapshotNeverAheadOfStore: while heals commit epoch after epoch, an
// observer polling Snapshot() never sees an epoch whose file is not yet on
// disk: the snapshot is built beside Store.Commit but published after it.
func TestSnapshotNeverAheadOfStore(t *testing.T) {
	dir := t.TempDir()
	srv, join := startServer(t, Config{Gen: "now-c", Seed: 1, StateDir: dir, Listen: "127.0.0.1:0"})
	join = sync.OnceFunc(join) // called below, to read the store race-free
	defer join()
	waitSnap(t, srv)
	cl := dialServer(t, srv)

	stop := make(chan struct{})
	observed := make(chan int, 1)
	go func() {
		seen, last := 0, uint64(0)
		defer func() { observed <- seen }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := srv.Snapshot()
			if snap.Epoch == last {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("epoch-%06d.san", snap.Epoch)))
			if err == nil {
				_, err = parseEpoch(data)
			}
			if err != nil {
				t.Errorf("served epoch %d before the store holds it: %v", snap.Epoch, err)
				return
			}
			last = snap.Epoch
			seen++
		}
	}()

	const heals = 4
	for i := 0; i < heals; i++ {
		if rep, err := cl.Call(map[string]any{"op": "remap"}); err != nil || rep["ok"] != true {
			t.Errorf("remap %d: %v %v", i, rep, err)
			break
		}
	}
	close(stop)
	if seen := <-observed; seen < 2 || t.Failed() {
		t.Fatalf("observer saw %d epochs during %d heals", seen, heals)
	}
	join()
	if got, want := srv.Snapshot().Epoch, srv.Store().Latest().Number; got != want || want != 1+heals {
		t.Fatalf("serving epoch %d, store latest %d, want both %d", got, want, 1+heals)
	}
}
