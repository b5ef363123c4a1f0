package mapd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"sanmap/internal/loadsim"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

// Serving levels: the degradation ladder. Full serves everything from a
// clean epoch; Annotated serves everything but stamps responses with the
// reduced confidence; Guarded additionally refuses routes that cross the
// suspect region (and serves everything else).
const (
	LevelFull = iota
	LevelAnnotated
	LevelGuarded
)

func levelName(l int) string {
	switch l {
	case LevelFull:
		return "full"
	case LevelAnnotated:
		return "annotated"
	case LevelGuarded:
		return "guarded"
	}
	return "unknown"
}

// Snapshot is one immutable serving state: an epoch's network, its
// precomputed route table, and the degradation-ladder classification.
// Connection goroutines read it lock-free via an atomic pointer; the
// world loop swaps in a fresh one at each commit and never mutates a
// published snapshot.
type Snapshot struct {
	Epoch      uint64
	Job        uint64
	Resumed    bool
	VClock     time.Duration
	Probes     int64
	Confidence float64
	Partial    bool
	Suspects   []string
	SuspectIDs map[topology.NodeID]bool
	Level      int
	Net        *topology.Network
	Table      *routes.Table // nil when route computation failed
	Metrics    map[string]int64

	// Route quality under the canned load replay, measured lazily on the
	// first `load` query and cached for the snapshot's lifetime (the
	// snapshot is immutable, so the replay is too).
	loadOnce sync.Once
	quality  map[string]any
}

// buildSnapshot materializes the serving state for a committed epoch.
// The route table is computed here, once, on the world loop — queries
// only ever read it.
func buildSnapshot(ep *Epoch) (*Snapshot, error) {
	topo, err := topology.ReadFrom(bytes.NewReader(ep.NetText))
	if err != nil {
		return nil, fmt.Errorf("mapd: epoch %d network: %w", ep.Number, err)
	}
	snap := &Snapshot{
		Epoch: ep.Number, Job: ep.Job, Resumed: ep.Resumed,
		VClock: ep.VClock, Probes: ep.Probes,
		Confidence: ep.Confidence, Partial: ep.Partial,
		Suspects:   ep.Suspects,
		SuspectIDs: make(map[topology.NodeID]bool, len(ep.SuspectIDs)),
		Net:        topo,
	}
	for _, id := range ep.SuspectIDs {
		snap.SuspectIDs[id] = true
	}
	switch {
	case ep.Partial || len(ep.SuspectIDs) > 0:
		snap.Level = LevelGuarded
	case ep.Confidence < 1:
		snap.Level = LevelAnnotated
	}
	if tab, err := routes.Compute(topo, routes.DefaultConfig()); err == nil {
		snap.Table = tab
	}
	return snap, nil
}

// request is one line-delimited JSON query.
type request struct {
	Op   string `json:"op"`
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	Spec string `json:"spec,omitempty"`
}

// acceptLoop admits connections until the listener closes at shutdown.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(c) {
			c.Close()
			return
		}
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn answers one client's queries. Reads hit only the atomic
// snapshot; state changes are forwarded to the world loop.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer s.untrack(c)
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	enc := json.NewEncoder(c)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var req request
		var resp map[string]any
		if err := json.Unmarshal(line, &req); err != nil {
			resp = map[string]any{"ok": false, "error": "bad request: " + err.Error()}
		} else {
			resp = s.handle(req)
		}
		s.queries.Add(1)
		if ok, _ := resp["ok"].(bool); !ok {
			if refused, _ := resp["refused"].(bool); refused {
				s.refused.Add(1)
			} else {
				s.failedReads.Add(1)
			}
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
		if req.Op == "stop" {
			// Only now: shutdown closes this connection, and the reply
			// must be on it first.
			s.Close()
		}
	}
}

// handle dispatches one request. Must stay safe for concurrent calls:
// reads touch only the snapshot, writes go through the command channel.
func (s *Server) handle(req request) map[string]any {
	snap := s.snap.Load()
	switch req.Op {
	case "ping":
		resp := map[string]any{"ok": true, "op": "ping"}
		if snap != nil {
			resp["epoch"] = snap.Epoch
		}
		return resp
	case "epoch":
		if snap == nil {
			return noEpoch("epoch")
		}
		return map[string]any{
			"ok": true, "op": "epoch",
			"epoch": snap.Epoch, "job": snap.Job, "resumed": snap.Resumed,
			"level": levelName(snap.Level), "confidence": snap.Confidence,
			"partial": snap.Partial, "suspects": len(snap.Suspects),
			"probes": snap.Probes, "vclock_ns": int64(snap.VClock),
		}
	case "topo":
		if snap == nil {
			return noEpoch("topo")
		}
		var b bytes.Buffer
		if err := snap.Net.Write(&b); err != nil {
			return map[string]any{"ok": false, "op": "topo", "error": err.Error()}
		}
		return map[string]any{
			"ok": true, "op": "topo", "epoch": snap.Epoch,
			"hosts": snap.Net.NumHosts(), "switches": snap.Net.NumSwitches(),
			"wires": snap.Net.NumWires(), "network": b.String(),
		}
	case "route":
		return routeAnswer(snap, req.From, req.To)
	case "metrics":
		if snap == nil {
			return noEpoch("metrics")
		}
		return map[string]any{
			"ok": true, "op": "metrics", "epoch": snap.Epoch,
			"metrics": snap.Metrics,
			"queries": s.queries.Load(), "refused": s.refused.Load(),
			"failed_reads": s.failedReads.Load(),
		}
	case "load":
		return loadAnswer(snap)
	case "inject", "remap":
		return s.worldCmd(req)
	case "stop": // serveConn closes the server once this reply is written
		return map[string]any{"ok": true, "op": "stop"}
	}
	return map[string]any{"ok": false, "error": fmt.Sprintf("unknown op %q", req.Op)}
}

// worldCmd hands a state change to the world loop and waits for its
// reply, bailing out if the server shuts down first.
func (s *Server) worldCmd(req request) map[string]any {
	cmd := command{op: req.Op, spec: req.Spec, reply: make(chan cmdReply, 1)}
	select {
	case s.cmds <- cmd:
	case <-s.stop:
		return map[string]any{"ok": false, "op": req.Op, "error": "server shutting down"}
	}
	select {
	case rep := <-cmd.reply:
		if rep.err != nil {
			return map[string]any{"ok": false, "op": req.Op, "error": rep.err.Error(), "epoch": rep.epoch}
		}
		return map[string]any{"ok": true, "op": req.Op, "result": rep.msg, "epoch": rep.epoch}
	case <-s.stop:
		return map[string]any{"ok": false, "op": req.Op, "error": "server shutting down"}
	}
}

func noEpoch(op string) map[string]any {
	return map[string]any{"ok": false, "op": op, "error": "no epoch committed yet"}
}

// routeAnswer computes one route response against a snapshot, applying
// the degradation ladder: annotation below full confidence, refusal —
// and only refusal — for routes crossing the suspect region at the
// guarded level.
func routeAnswer(snap *Snapshot, from, to string) map[string]any {
	resp := map[string]any{"op": "route", "from": from, "to": to}
	if snap == nil {
		resp["ok"] = false
		resp["error"] = "no epoch committed yet"
		return resp
	}
	resp["epoch"] = snap.Epoch
	if snap.Level != LevelFull {
		resp["degraded"] = levelName(snap.Level)
		resp["confidence"] = snap.Confidence
	}
	src, dst := snap.Net.Lookup(from), snap.Net.Lookup(to)
	if src == topology.None || dst == topology.None {
		resp["ok"] = false
		resp["error"] = "unknown host"
		return resp
	}
	if snap.Table == nil {
		resp["ok"] = false
		resp["error"] = "no route table for this epoch"
		return resp
	}
	route, ok := snap.Table.Route(src, dst)
	if !ok {
		resp["ok"] = false
		resp["error"] = "no route"
		return resp
	}
	wires, _ := snap.Table.WirePath(src, dst)
	if snap.Level == LevelGuarded {
		if bad := crossesSuspect(snap, src, dst, wires); bad != topology.None {
			resp["ok"] = false
			resp["refused"] = true
			resp["error"] = fmt.Sprintf("route crosses suspect node %s", snap.Net.NameOf(bad))
			return resp
		}
	}
	resp["ok"] = true
	resp["route"] = route.String()
	resp["hops"] = len(wires)
	return resp
}

// loadAnswer reports route quality of the served epoch: a canned seeded
// traffic plan (uniform, light load) replayed over the snapshot's route
// table via internal/loadsim, so operators can ask not just "what is the
// route" but "how good are this epoch's routes under load". The replay is
// a pure function of the epoch's network, so answers are deterministic and
// cached on the snapshot; degraded epochs carry the same annotation the
// route op uses.
func loadAnswer(snap *Snapshot) map[string]any {
	resp := map[string]any{"op": "load"}
	if snap == nil {
		return noEpoch("load")
	}
	resp["epoch"] = snap.Epoch
	if snap.Level != LevelFull {
		resp["degraded"] = levelName(snap.Level)
		resp["confidence"] = snap.Confidence
	}
	if snap.Table == nil {
		resp["ok"] = false
		resp["error"] = "no route table for this epoch"
		return resp
	}
	snap.loadOnce.Do(func() { snap.quality = measureQuality(snap) })
	if snap.quality == nil {
		resp["ok"] = false
		resp["error"] = "load replay failed (fewer than two hosts?)"
		return resp
	}
	for k, v := range snap.quality {
		resp[k] = v
	}
	resp["ok"] = true
	return resp
}

// loadProbePlan is the canned replay: light uniform traffic, fixed seed,
// just long enough to light up every route.
func loadProbePlan(net *topology.Network) *workload.Plan {
	return workload.NewPlan(net, workload.PlanConfig{
		Pattern: workload.Uniform, Load: 0.2, MsgBytes: 512,
		Duration: 200 * time.Microsecond,
		ByteTime: simnet.DefaultTiming().ByteTime, Seed: 1,
	})
}

// measureQuality runs the canned replay and flattens the report.
func measureQuality(snap *Snapshot) map[string]any {
	eng, err := loadsim.New(snap.Net, snap.Table, simnet.DefaultTiming(), 512)
	if err != nil {
		return nil
	}
	rep, err := eng.Run(loadProbePlan(snap.Net))
	if err != nil {
		return nil
	}
	return map[string]any{
		"deadlock_free":   rep.DeadlockFree,
		"sent":            rep.Sent,
		"delivered":       rep.Delivered,
		"lost":            rep.Lost,
		"blocked":         rep.Blocked,
		"throughput_bps":  rep.ThroughputBps,
		"p50_ns":          int64(rep.P50),
		"p99_ns":          int64(rep.P99),
		"max_latency_ns":  int64(rep.MaxLatency),
		"peak_util_ppm":   rep.MaxUtilPPM(),
		"congested_links": len(rep.Links),
		"makespan_ns":     int64(rep.Makespan),
	}
}

// crossesSuspect returns the first suspect node the route touches
// (endpoints included), or topology.None.
func crossesSuspect(snap *Snapshot, src, dst topology.NodeID, wires []int) topology.NodeID {
	if snap.SuspectIDs[src] {
		return src
	}
	if snap.SuspectIDs[dst] {
		return dst
	}
	for _, wi := range wires {
		w := snap.Net.WireByIndex(wi)
		if snap.SuspectIDs[w.A.Node] {
			return w.A.Node
		}
		if snap.SuspectIDs[w.B.Node] {
			return w.B.Node
		}
	}
	return topology.None
}
