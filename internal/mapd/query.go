package mapd

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
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

//sanlint:hotpath
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

	// What the epoch, topo and load ops reply, and the frozen registry as the
	// metrics op embeds it: functions of the fields above alone, so each is
	// rendered by the first query that asks and kept for the snapshot's
	// lifetime. The load reply is where the canned replay runs.
	epochReply, topoReply, loadReply, metricsObject lazyReply
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

// outcome classifies a reply for the daemon's counters: every query counts
// in queries, a refusal in refused, any other failure in failed_reads.
type outcome uint8

const (
	served  outcome = iota // ok:true
	refused                // ok:false, refused:true: the guarded rung declined a route
	failed                 // ok:false otherwise
)

const noEpochYet = "no epoch committed yet"

// lazyReply is reply text that depends on the snapshot alone. The first
// query that needs it builds it — on a connection goroutine, so publishing
// a snapshot costs the world loop nothing — and every later one copies it.
type lazyReply struct {
	once sync.Once
	text []byte
	res  outcome
}

func (l *lazyReply) get(build func() ([]byte, outcome)) ([]byte, outcome) {
	l.once.Do(func() { l.text, l.res = build() })
	return l.text, l.res
}

// handle appends the reply to one request and classifies it. Must stay safe
// for concurrent calls: reads touch only the snapshot, writes go through the
// command channel.
func (s *Server) handle(dst []byte, req request) ([]byte, outcome) {
	snap := s.snap.Load()
	switch string(req.Op) {
	case "ping":
		dst = append(dst, '{')
		if snap != nil {
			dst = fieldUint(dst, "epoch", snap.Epoch)
		}
		dst = fieldBool(dst, "ok", true)
		dst = fieldString(dst, "op", "ping")
		return append(dst, '}', '\n'), served
	case "epoch":
		if snap == nil {
			return appendFailure(dst, "epoch", noEpochYet), failed
		}
		text, res := snap.epochReply.get(snap.buildEpochReply)
		return append(dst, text...), res
	case "topo":
		if snap == nil {
			return appendFailure(dst, "topo", noEpochYet), failed
		}
		text, res := snap.topoReply.get(snap.buildTopoReply)
		return append(dst, text...), res
	case "route":
		return appendRoute(dst, snap, req.From, req.To)
	case "metrics":
		if snap == nil {
			return appendFailure(dst, "metrics", noEpochYet), failed
		}
		frozen, _ := snap.metricsObject.get(snap.buildMetricsObject)
		dst = append(dst, '{')
		dst = fieldUint(dst, "epoch", snap.Epoch)
		dst = fieldInt(dst, "failed_reads", s.failedReads.Load())
		dst = append(appendKey(dst, "metrics"), frozen...)
		dst = fieldBool(dst, "ok", true)
		dst = fieldString(dst, "op", "metrics")
		dst = fieldInt(dst, "queries", s.queries.Load())
		dst = fieldInt(dst, "refused", s.refused.Load())
		return append(dst, '}', '\n'), served
	case "load":
		if snap == nil {
			return appendFailure(dst, "load", noEpochYet), failed
		}
		text, res := snap.loadReply.get(snap.buildLoadReply)
		return append(dst, text...), res
	case "inject", "remap":
		return s.worldCmd(dst, string(req.Op), string(req.Spec))
	case "stop": // serveConn closes the server once this reply is written
		dst = append(dst, '{')
		dst = fieldBool(dst, "ok", true)
		dst = fieldString(dst, "op", "stop")
		return append(dst, '}', '\n'), served
	}
	return appendFailure(dst, "", fmt.Sprintf("unknown op %q", req.Op)), failed
}

// worldCmd hands a state change to the world loop and waits for its reply,
// bailing out if the server shuts down first. op and spec are copies, not
// views of the connection's read buffer: the world loop may still be
// reading them after a shutdown has let this return.
func (s *Server) worldCmd(dst []byte, op, spec string) ([]byte, outcome) {
	cmd := command{op: op, spec: spec, reply: make(chan cmdReply, 1)}
	select {
	case s.cmds <- cmd:
	case <-s.stop:
		return appendFailure(dst, op, "server shutting down"), failed
	}
	select {
	case rep := <-cmd.reply:
		dst = append(dst, '{')
		dst = fieldUint(dst, "epoch", rep.epoch)
		if rep.err != nil {
			dst = fieldString(dst, "error", rep.err.Error())
			dst = fieldBool(dst, "ok", false)
			dst = fieldString(dst, "op", op)
			return append(dst, '}', '\n'), failed
		}
		dst = fieldBool(dst, "ok", true)
		dst = fieldString(dst, "op", op)
		dst = fieldString(dst, "result", rep.msg)
		return append(dst, '}', '\n'), served
	case <-s.stop:
		return appendFailure(dst, op, "server shutting down"), failed
	}
}

func (snap *Snapshot) buildEpochReply() ([]byte, outcome) {
	dst := []byte{'{'}
	dst = fieldFloat(dst, "confidence", snap.Confidence)
	dst = fieldUint(dst, "epoch", snap.Epoch)
	dst = fieldUint(dst, "job", snap.Job)
	dst = fieldString(dst, "level", levelName(snap.Level))
	dst = fieldBool(dst, "ok", true)
	dst = fieldString(dst, "op", "epoch")
	dst = fieldBool(dst, "partial", snap.Partial)
	dst = fieldInt(dst, "probes", snap.Probes)
	dst = fieldBool(dst, "resumed", snap.Resumed)
	dst = fieldInt(dst, "suspects", int64(len(snap.Suspects)))
	dst = fieldInt(dst, "vclock_ns", int64(snap.VClock))
	return append(dst, '}', '\n'), served
}

func (snap *Snapshot) buildTopoReply() ([]byte, outcome) {
	var text bytes.Buffer
	if err := snap.Net.Write(&text); err != nil {
		return appendFailure(nil, "topo", err.Error()), failed
	}
	dst := []byte{'{'}
	dst = fieldUint(dst, "epoch", snap.Epoch)
	dst = fieldInt(dst, "hosts", int64(snap.Net.NumHosts()))
	dst = fieldString(dst, "network", text.Bytes())
	dst = fieldBool(dst, "ok", true)
	dst = fieldString(dst, "op", "topo")
	dst = fieldInt(dst, "switches", int64(snap.Net.NumSwitches()))
	dst = fieldInt(dst, "wires", int64(snap.Net.NumWires()))
	return append(dst, '}', '\n'), served
}

// buildMetricsObject renders the registry as frozen at publish; the metrics
// op appends the live query counters around it.
func (snap *Snapshot) buildMetricsObject() ([]byte, outcome) {
	if snap.Metrics == nil {
		return []byte("null"), served
	}
	names := make([]string, 0, len(snap.Metrics))
	for name := range snap.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	dst := []byte{'{'}
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(appendString(dst, name), ':')
		dst = strconv.AppendInt(dst, snap.Metrics[name], 10)
	}
	return append(dst, '}'), served
}

// appendRoute answers one route query against a snapshot, applying the
// degradation ladder: annotation below full confidence, refusal — and only
// refusal — for routes crossing the suspect region at the guarded level.
//
//sanlint:hotpath
func appendRoute(dst []byte, snap *Snapshot, from, to []byte) ([]byte, outcome) {
	var (
		fail    string                          // why no route is served, unless a suspect is why
		suspect topology.NodeID = topology.None // the suspect node a refused route crosses
		route   simnet.Route
		wires   []int
	)
	dst = append(dst, '{')
	if snap == nil {
		fail = noEpochYet
	} else {
		if snap.Level != LevelFull {
			dst = fieldFloat(dst, "confidence", snap.Confidence)
			dst = fieldString(dst, "degraded", levelName(snap.Level))
		}
		dst = fieldUint(dst, "epoch", snap.Epoch)
		src, dest := snap.Net.LookupBytes(from), snap.Net.LookupBytes(to)
		switch {
		case src == topology.None || dest == topology.None:
			fail = "unknown host"
		case snap.Table == nil:
			fail = "no route table for this epoch"
		default:
			var ok bool
			if route, ok = snap.Table.Route(src, dest); !ok {
				fail = "no route"
				break
			}
			wires, _ = snap.Table.WirePath(src, dest)
			if snap.Level == LevelGuarded {
				suspect = crossesSuspect(snap, src, dest, wires)
			}
		}
	}
	res := served
	switch {
	case suspect != topology.None:
		res = refused
		dst = appendKey(dst, "error")
		dst = append(dst, `"route crosses suspect node `...)
		dst = appendEscaped(dst, snap.Net.NameOf(suspect))
		dst = append(dst, '"')
	case fail != "":
		res = failed
		dst = fieldString(dst, "error", fail)
	}
	dst = fieldString(dst, "from", from)
	if res == served {
		dst = fieldInt(dst, "hops", int64(len(wires)))
	}
	dst = fieldBool(dst, "ok", res == served)
	dst = fieldString(dst, "op", "route")
	switch res {
	case refused:
		dst = fieldBool(dst, "refused", true)
	case served:
		dst = appendKey(dst, "route")
		dst = append(dst, '"')
		if len(route) == 0 {
			dst = append(dst, "ε"...) // as Route.String spells the empty route
		}
		dst = route.AppendText(dst)
		dst = append(dst, '"')
	}
	dst = fieldString(dst, "to", to)
	return append(dst, '}', '\n'), res
}

// buildLoadReply reports route quality of the served epoch: a canned seeded
// traffic plan (uniform, light load) replayed over the snapshot's route
// table via internal/loadsim, so operators can ask not just "what is the
// route" but "how good are this epoch's routes under load". The replay is
// a pure function of the epoch's network, so answers are deterministic and
// built once per snapshot; degraded epochs carry the same annotation the
// route op uses.
func (snap *Snapshot) buildLoadReply() ([]byte, outcome) {
	fail := ""
	var rep *loadsim.Report
	if snap.Table == nil {
		fail = "no route table for this epoch"
	} else if rep = measureQuality(snap); rep == nil {
		fail = "load replay failed (fewer than two hosts?)"
	}
	degraded := snap.Level != LevelFull
	dst := []byte{'{'}
	if fail != "" {
		if degraded {
			dst = fieldFloat(dst, "confidence", snap.Confidence)
			dst = fieldString(dst, "degraded", levelName(snap.Level))
		}
		dst = fieldUint(dst, "epoch", snap.Epoch)
		dst = fieldString(dst, "error", fail)
		dst = fieldBool(dst, "ok", false)
		dst = fieldString(dst, "op", "load")
		return append(dst, '}', '\n'), failed
	}
	dst = fieldInt(dst, "blocked", rep.Blocked)
	if degraded {
		dst = fieldFloat(dst, "confidence", snap.Confidence)
	}
	dst = fieldInt(dst, "congested_links", int64(len(rep.Links)))
	dst = fieldBool(dst, "deadlock_free", rep.DeadlockFree)
	if degraded {
		dst = fieldString(dst, "degraded", levelName(snap.Level))
	}
	dst = fieldInt(dst, "delivered", rep.Delivered)
	dst = fieldUint(dst, "epoch", snap.Epoch)
	dst = fieldInt(dst, "lost", rep.Lost)
	dst = fieldInt(dst, "makespan_ns", int64(rep.Makespan))
	dst = fieldInt(dst, "max_latency_ns", int64(rep.MaxLatency))
	dst = fieldBool(dst, "ok", true)
	dst = fieldString(dst, "op", "load")
	dst = fieldInt(dst, "p50_ns", int64(rep.P50))
	dst = fieldInt(dst, "p99_ns", int64(rep.P99))
	dst = fieldInt(dst, "peak_util_ppm", rep.MaxUtilPPM())
	dst = fieldInt(dst, "sent", rep.Sent)
	dst = fieldInt(dst, "throughput_bps", rep.ThroughputBps)
	return append(dst, '}', '\n'), served
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

// measureQuality runs the canned replay; nil when it cannot run.
func measureQuality(snap *Snapshot) *loadsim.Report {
	eng, err := loadsim.New(snap.Net, snap.Table, simnet.DefaultTiming(), 512)
	if err != nil {
		return nil
	}
	rep, err := eng.Run(loadProbePlan(snap.Net))
	if err != nil {
		return nil
	}
	return rep
}

// crossesSuspect returns the first suspect node the route touches
// (endpoints included), or topology.None.
//
//sanlint:hotpath
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
