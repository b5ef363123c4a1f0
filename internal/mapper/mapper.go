package mapper

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sanmap/internal/obs"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// ReplicatePolicy selects what happens to pending exploration work when a
// vertex is discovered to be a replicate of an already-explored one.
type ReplicatePolicy uint8

const (
	// DedupFrontier skips exploration jobs whose vertex has merged into an
	// explored vertex — the behaviour implied by §3.3's object merging and
	// the probe-count economy of Fig 6.
	DedupFrontier ReplicatePolicy = iota
	// RetryUnknown re-explores merged vertices, but only the slots still
	// empty in the survivor's frame — the probes the survivor's route may
	// have lost to self-collisions. A middle ground between probe cost and
	// the label algorithm's exhaustiveness.
	RetryUnknown
)

// ProbeOrder selects which of the two §2.3 probe types is sent first for a
// candidate turn (the second is skipped when the first answers).
type ProbeOrder uint8

const (
	// HostFirst sends the host-probe first. Host responses are the merge
	// anchors, so this finds deductions as early as possible.
	HostFirst ProbeOrder = iota
	// SwitchFirst sends the loopback switch-probe first.
	SwitchFirst
)

// TurnOrder selects the order in which candidate turns are probed.
type TurnOrder uint8

const (
	// SmallTurnsFirst probes ±1, ∓1, ±2, ... — the paper's §3.3 heuristic:
	// "excluding turn 0, turns of +/-1 are the best, turns of +/-2 are the
	// next best, etc."
	SmallTurnsFirst TurnOrder = iota
	// NaiveScan probes −7..−1, +1..+7 in order (the ablation baseline).
	NaiveScan
)

// Config parameterises a mapping run: the value Options write over
// DefaultConfig. No exported function takes one: options configure a run.
type Config struct {
	// Depth is the maximum probe-string length ("SearchDepth"). The paper's
	// correctness bound is Q+D (§3.2.7); topology.DepthBound computes it
	// when the true network is available to the harness.
	Depth int
	// Policy controls replicate re-exploration (see ReplicatePolicy).
	Policy ReplicatePolicy
	// ProbeOrder controls host-versus-switch probe order per turn.
	ProbeOrder ProbeOrder
	// TurnOrder controls the turn exploration heuristic.
	TurnOrder TurnOrder
	// EliminateProbes enables §3.3's provably-safe probe elimination using
	// the feasible-port window. Disabling it is the ablation baseline.
	EliminateProbes bool
	// MaxVertices aborts pathological runs (0 = default 1<<20).
	MaxVertices int
	// Snapshots enables the Fig 8 instrumentation: one Snapshot per switch
	// exploration.
	Snapshots bool
	// Cancel, when non-nil, is polled between explorations; returning true
	// aborts the run with ErrCanceled. The election mode (§4.2) uses it to
	// passivate a mapper that has heard from a higher-priority one.
	Cancel func() bool
	// Tracer, when non-nil, records the run onto the unified observability
	// layer: phase spans ("explore-phase", "explore", "prune", "sweep")
	// and instants ("probe", "discover", "merge", "prune", "explore-done",
	// "pipeline"), all under cat "mapper" (the
	// self-healing fault log additionally lands under cat "heal"). See
	// internal/obs.
	Tracer *obs.Tracer
	// Metrics, when non-nil, is the obs registry the run counts into
	// (names under "mapper.", see internal/obs) alongside the Stats
	// struct. The pipelined probe engine inherits it unless
	// Pipeline.Metrics is set explicitly.
	Metrics *obs.Registry
	// Pipeline configures the pipelined probe engine. With Window > 1 the
	// explorer prefetches all independent probes of each frontier
	// slot-window through a simnet.ProbeWindow, overlapping their response
	// timeouts; results are applied by the unchanged serial deduction loop,
	// so the produced map is byte-identical to the serial one. Window <= 1
	// (the zero value) keeps the strictly serial path.
	Pipeline simnet.WindowConfig
	// Confirm, when > 1, requires K-of-N probe confirmation before an edge
	// is committed to the model: a response that would create an edge must
	// be observed Confirm times within 2×Confirm−1 samples of the same
	// probe string, otherwise the turn is treated as "nothing". Values of 0
	// or 1 commit on the first response — the paper's quiescent behaviour,
	// byte-identical to historical runs.
	Confirm int
	// FaultBudget, when > 0, bounds the contradictions a run tolerates
	// before it stops exploring and reports a partial result
	// (Result.Partial rather than an error).
	FaultBudget int
	// Coupons > 0 makes the first Map send that many maximal-depth random
	// probes, turns drawn from CouponRng, before the BFS (WithCoupons).
	Coupons   int
	CouponRng *rand.Rand
}

// DefaultConfig returns the paper-faithful production configuration; the
// depth must still be set by the caller.
func DefaultConfig(depth int) Config {
	return Config{
		Depth:           depth,
		Policy:          DedupFrontier,
		ProbeOrder:      HostFirst,
		TurnOrder:       SmallTurnsFirst,
		EliminateProbes: true,
	}
}

// Snapshot is one Fig 8 sample, taken after each switch exploration: "the
// number of nodes and edges in the model graph as well as the number of
// items on the frontier list were recorded after a frontier switch was
// explored. Hence time is in units of 'switch explorations'".
type Snapshot struct {
	Exploration int
	Vertices    int
	Edges       int
	Frontier    int
}

// Stats aggregates a run.
type Stats struct {
	Probes        simnet.Stats
	Explorations  int // frontier pops that actually probed
	SkippedJobs   int // frontier pops suppressed by the replicate policy
	Merges        int
	PrunedVerts   int
	Elapsed       time.Duration
	Inconsistent  int // contradictory deductions (nonzero only under noise)
	EliminatedPro int // probes skipped by the safe-elimination window
	// Contradictions counts deductions that disagreed with the committed
	// model; Reexplored counts the scoped
	// re-explorations those contradictions (and verification sweeps)
	// scheduled. Both stay zero on a quiescent network.
	Contradictions int
	Reexplored     int
	// Pipeline carries the probe-engine counters when Config.Pipeline
	// enabled the pipelined path.
	Pipeline simnet.WindowStats
}

// Map is the result of a mapping run.
type Map struct {
	// Network is the reconstructed topology. Host names are preserved;
	// switches are anonymous (named m0, m1, ... in creation order); port
	// numbers are consistent up to the per-switch rotation that Lemma 2
	// proves unobservable (routes depend only on port differences).
	Network *topology.Network
	// Mapper is the node id of the mapping host within Network.
	Mapper topology.NodeID
	Stats  Stats
	// Series is the Fig 8 instrumentation when Config.Snapshots was set.
	Series []Snapshot
}

// ErrDepthExceeded reports an invalid search-depth bound: a run configured
// without a positive Depth (see WithDepth).
var ErrDepthExceeded = errors.New("mapper: search depth bound invalid")

// ErrTooManyVertices reports a run aborted by Config.MaxVertices.
var ErrTooManyVertices = errors.New("mapper: model graph exceeded MaxVertices")

// ErrCanceled reports a run aborted by Config.Cancel (election passivation).
var ErrCanceled = errors.New("mapper: run canceled")

// job is one pending frontier exploration: a vertex reference plus the
// probe string that created it (the route this job's probes will extend).
// entry is the index, in v's own frame, of the port this route enters
// through — 0 for vertices created by the BFS or the coupon chains; possibly
// other values for jobs the heal sweep re-enqueues over fresh routes.
type job struct {
	v     *Vertex
	route simnet.Route
	entry int
}

// run holds the state of one mapping run.
type run struct {
	cfg    Config
	p      simnet.Prober
	model  *Model
	front  []job
	stats  Stats
	series []Snapshot
	start  time.Duration
	// win is the pipelined probe engine (nil when disabled or unsupported
	// by the transport); ps streams the current exploration's probe pairs
	// through it, holding the responses collected so far indexed by
	// submission tag (no per-probe map traffic on the hot path). psPool is
	// the recycled stream state — its slices grow to the run's high-water
	// mark once and are reset, not reallocated, per exploration.
	win    *simnet.ProbeWindow
	ps     *exploreStream
	psPool exploreStream
	// turns is the candidate turn sequence every exploration walks, and
	// probeBuf the scratch route the serial explore loop and the heal
	// sweep build each probe in; a probe string is copied only when it
	// becomes a vertex's or a job's.
	turns    []simnet.Turn
	probeBuf simnet.Route
	// Self-healing state: partial marks a run stopped by an exhausted fault
	// budget; obs is the mapper-side fault log; staleCount bounds per-vertex
	// re-explorations so a persistently lying region cannot loop the run
	// forever.
	partial    bool
	obs        []Observation
	staleCount map[*Vertex]int
	// m holds the run's pre-registered obs handles (nil handles when
	// Config.Metrics is nil — updates are then no-ops).
	m runMetrics
}

// tracing reports whether the run records onto a tracer, so trace sites
// can skip building instants nobody will read.
func (r *run) tracing() bool { return r.cfg.Tracer != nil }

// runMetrics is the mapper's obs handle set, mirroring the Stats fields
// that describe deduction work (probe-engine counters live with the
// window; transport counters with the net).
type runMetrics struct {
	explorations   *obs.Counter
	merges         *obs.Counter
	pruned         *obs.Counter
	eliminated     *obs.Counter
	contradictions *obs.Counter
	reexplored     *obs.Counter
	exploreTime    *obs.Histogram
}

// registerRunMetrics resolves the run's handles in reg (nil reg hands out
// nil no-op handles).
func registerRunMetrics(reg *obs.Registry) runMetrics {
	return runMetrics{
		explorations:   reg.Counter("mapper.explorations"),
		merges:         reg.Counter("mapper.merges"),
		pruned:         reg.Counter("mapper.pruned"),
		eliminated:     reg.Counter("mapper.eliminated"),
		contradictions: reg.Counter("mapper.contradictions"),
		reexplored:     reg.Counter("mapper.reexplored"),
		exploreTime:    reg.Histogram("mapper.explore.time", obs.DefaultBuckets()),
	}
}

// staleLimit bounds how many times one vertex may be re-enqueued stale.
const staleLimit = 3

// newRun validates the configuration and builds the run both session
// constructors (NewSession, RestoreSession) start from: an empty model with
// the contradiction hook and staleness caps installed.
func newRun(p simnet.Prober, cfg Config) (*run, error) {
	if cfg.Depth < 1 {
		return nil, fmt.Errorf("mapper: Depth must be at least 1, got %d: %w", cfg.Depth, ErrDepthExceeded)
	}
	if cfg.MaxVertices == 0 {
		cfg.MaxVertices = 1 << 20
	}
	maxPorts, err := proberRadix(p)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, p: p, model: newModel(), m: registerRunMetrics(cfg.Metrics),
		staleCount: make(map[*Vertex]int), start: p.Clock()}
	r.model.maxPorts = maxPorts
	r.model.onInconsistency = r.noteContradiction
	r.turns = turnSequence(cfg.TurnOrder, maxPorts-1)
	r.initPipeline()
	return r, nil
}

// initialize performs INITIALIZATION (§3.1): the root host-vertex for the
// mapper itself and its adjacent switch-vertex, which it returns; the
// frontier starts with that switch.
func (r *run) initialize() *Vertex {
	h0, _ := r.model.hostVertex(r.p.LocalHost(), simnet.Route{})
	rootSwitch := r.model.newVertex(topology.SwitchNode, "", simnet.Route{})
	// The host's single wire is the switch's entry port, relative index 0.
	r.model.addEdge(h0, 0, rootSwitch, 0)
	r.front = append(r.front, job{v: rootSwitch, route: simnet.Route{}})
	return rootSwitch
}

// runLoop drains the frontier: EXPLORE + MERGE, interleaved per §3.3
// modification 1. A self-healing run whose contradictions exceed the fault
// budget stops early and marks the run partial instead of erroring.
func (r *run) runLoop() error {
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Begin("mapper", "explore-phase", r.p.Clock())
		defer func() { r.cfg.Tracer.End(r.p.Clock()) }()
	}
	for len(r.front) > 0 {
		if r.cfg.Cancel != nil && r.cfg.Cancel() {
			return ErrCanceled
		}
		if r.budgetSpent() {
			r.front = r.front[:0]
			break
		}
		jb := r.front[0]
		r.front = r.front[1:]
		if err := r.explore(jb); err != nil {
			return err
		}
	}
	return nil
}

// budgetSpent reports whether the configured fault budget is exhausted,
// marking the run partial when it is.
func (r *run) budgetSpent() bool {
	if r.cfg.FaultBudget <= 0 || r.stats.Contradictions <= r.cfg.FaultBudget {
		return false
	}
	r.partial = true
	r.observe("budget-exhausted", nil)
	return true
}

// noteContradiction handles one contradictory deduction: count it against
// the budget and mark both involved regions stale.
func (r *run) noteContradiction(a, b *Vertex) {
	r.stats.Contradictions++
	r.m.contradictions.Inc()
	r.observe("contradiction", nil)
	r.markStale(a)
	r.markStale(b)
}

// markStale flags a vertex for scoped incremental re-exploration over its
// discovery route (see reexploreAt for the cap that turns a persistently
// contradicting region into suspect edges instead of an endless loop).
func (r *run) markStale(v *Vertex) {
	root, _ := find(v)
	r.reexploreAt(root, root.probe, 0)
}

// turnSequence returns the candidate turns in the given order, bounded by
// the switch radix (turn magnitudes up to maxTurn).
func turnSequence(order TurnOrder, maxTurn int) []simnet.Turn {
	out := make([]simnet.Turn, 0, 2*maxTurn)
	switch order {
	case SmallTurnsFirst:
		for mag := 1; mag <= maxTurn; mag++ {
			out = append(out, simnet.Turn(mag), simnet.Turn(-mag))
		}
	default: // NaiveScan
		for t := -maxTurn; t <= maxTurn; t++ {
			if t != 0 {
				out = append(out, simnet.Turn(t))
			}
		}
	}
	return out
}

// requireCaps rejects a transport that cannot execute every probe kind an
// algorithm depends on.
func requireCaps(p simnet.Prober, want simnet.ProbeCaps) error {
	if !p.Probes().Has(want) {
		return fmt.Errorf("mapper: transport lacks a probe kind the algorithm needs: %w", simnet.ErrUnsupported)
	}
	return nil
}

// proberRadix reads the switch radix the run plans for off the prober,
// refusing one the model cannot represent.
func proberRadix(p simnet.Prober) (int, error) {
	mp := p.MaxPorts()
	if mp < 2 || mp > topology.MaxSwitchRadix {
		return 0, fmt.Errorf("mapper: prober MaxPorts %d outside [2, %d]", mp, topology.MaxSwitchRadix)
	}
	return mp, nil
}

// explore pops one job: probes every candidate turn out of the switch the
// job's route reaches, creating vertices and edges for the responses and
// draining the merge list after each discovery.
func (r *run) explore(jb job) error {
	root, shift := find(jb.v)
	if root.kind != topology.SwitchNode {
		return nil // merged into a host vertex under noise; nothing to do
	}
	switch r.cfg.Policy {
	case DedupFrontier:
		if root.explored {
			r.stats.SkippedJobs++
			return nil
		}
	case RetryUnknown:
		// Proceed; slots that already hold an edge are skipped below.
	}
	if len(jb.route) >= r.cfg.Depth {
		return nil // beyond SearchDepth: vertex stays, unexplored
	}
	began := r.p.Clock()
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Begin("mapper", "explore", began,
			obs.Int("vertex", root.id), obs.String("route", jb.route.String()))
		defer func() { r.cfg.Tracer.End(r.p.Clock()) }()
	}
	entry := jb.entry + shift // frame index of this route's entry port
	r.beginStream(jb, r.turns)
	for ti, t := range r.turns {
		idx := entry + int(t)
		if r.cfg.EliminateProbes {
			lo, hi := r.model.window(root)
			if !r.model.feasible(idx, lo, hi) {
				r.stats.EliminatedPro++
				r.m.eliminated.Inc()
				continue
			}
		}
		if root.occupied(idx) {
			continue // the slot already holds an edge; nothing to learn
		}
		resp, probeStr := r.pairAt(root, entry, ti, jb.route, t)
		if r.tracing() {
			desc := resp.Kind.String()
			if resp.Kind == simnet.RespHost {
				desc = "host:" + resp.Host
			}
			r.cfg.Tracer.Instant("mapper", "probe", r.p.Clock(),
				obs.String("route", probeStr.String()), obs.String("resp", desc))
		}
		switch resp.Kind {
		case simnet.RespNothing:
			continue
		case simnet.RespHost:
			hv, created := r.model.hostVertex(resp.Host, probeStr)
			// Host side is always the host's single port, index 0.
			r.model.addEdge(root, idx, hv, 0)
			if created && r.tracing() {
				r.cfg.Tracer.Instant("mapper", "discover", r.p.Clock(),
					obs.Int("vertex", hv.id), obs.String("route", probeStr.String()))
			}
		case simnet.RespSwitch:
			probeStr = r.model.keepRoute(probeStr)
			w := r.model.newVertex(topology.SwitchNode, "", probeStr)
			if r.model.nextID > r.cfg.MaxVertices {
				return ErrTooManyVertices
			}
			// The new vertex's frame is anchored at its entry port: the
			// wire back toward the mapper is its relative index 0.
			r.model.addEdge(root, idx, w, 0)
			r.front = append(r.front, job{v: w, route: probeStr})
			if r.tracing() {
				r.cfg.Tracer.Instant("mapper", "discover", r.p.Clock(),
					obs.Int("vertex", w.id), obs.String("route", probeStr.String()))
			}
		}
		before := r.model.liveVerts
		if r.tracing() {
			r.model.onMerge = func(into, victim, shift int) {
				r.cfg.Tracer.Instant("mapper", "merge", r.p.Clock(), obs.Int("into", into),
					obs.Int("victim", victim), obs.String("shift", fmt.Sprintf("%+d", shift)))
			}
		}
		r.model.processMerges()
		r.stats.Merges += before - r.model.liveVerts
		r.m.merges.Add(int64(before - r.model.liveVerts))
		// Re-resolve: the vertex we are exploring may itself have merged.
		newRoot, newShift := find(jb.v)
		if newRoot != root {
			root, shift = newRoot, newShift
			entry = jb.entry + shift
			if r.cfg.Policy == DedupFrontier && root.explored {
				break
			}
		}
	}
	root.explored = true
	r.endStream()
	if r.tracing() {
		r.cfg.Tracer.Instant("mapper", "explore-done", r.p.Clock(), obs.Int("vertex", root.id))
	}
	r.stats.Explorations++
	r.m.explorations.Inc()
	r.m.exploreTime.Observe(r.p.Clock() - began)
	if r.cfg.Snapshots {
		r.series = append(r.series, Snapshot{
			Exploration: r.stats.Explorations,
			Vertices:    r.model.NumVertices(),
			Edges:       r.model.NumEdges(),
			Frontier:    len(r.front),
		})
	}
	return nil
}

// pairAt resolves the probe pair for the candidate turn t at index ti of
// the turn sequence, returning the response and the probed route
// (base extended by t). A response prefetched by the pipelined engine is
// consumed instead of probing live — reusing the stream's already-built
// route; candidates the prefetch did not cover (possible when a
// mid-exploration merge rewrites the frontier vertex) fall back to the
// serial probes, so the deduction sequence never depends on the pipeline.
// The route is scratch, valid until the next pairAt or beginStream: a
// caller that keeps it copies it.
func (r *run) pairAt(root *Vertex, entry int, ti int, base simnet.Route, t simnet.Turn) (simnet.ProbeResponse, simnet.Route) {
	if ps := r.ps; ps != nil {
		r.streamWant(root, entry, ti)
		if tag := ps.tiTag[ti] - 1; tag >= 0 && ps.done[tag] && !ps.used[tag] {
			ps.used[tag] = true
			s := ps.routes[tag]
			return r.confirmResponse(s, ps.resp[tag]), s
		}
	}
	r.probeBuf = append(append(r.probeBuf[:0], base...), t)
	s := r.probeBuf
	return r.confirmResponse(s, r.probeOnce(s)), s
}

// probeOrder returns the two §2.3 probe kinds in the configured order.
func (r *run) probeOrder() (first, second simnet.ProbeKind) {
	if r.cfg.ProbeOrder == SwitchFirst {
		return simnet.ProbeSwitch, simnet.ProbeHost
	}
	return simnet.ProbeHost, simnet.ProbeSwitch
}

// probeOnce issues one live probe pair in the configured order, skipping
// the second probe when the first answers.
func (r *run) probeOnce(s simnet.Route) simnet.ProbeResponse {
	first, second := r.probeOrder()
	res := simnet.Do(r.p, simnet.Probe{Kind: first, Route: s})
	if res.OK {
		return pairResponse(first, &res)
	}
	res = simnet.Do(r.p, simnet.Probe{Kind: second, Route: s})
	return pairResponse(second, &res)
}

// confirmResponse implements K-of-N commit confirmation (Config.Confirm):
// a response that would create an edge must be reproduced Confirm times
// within 2×Confirm−1 samples of the same probe string before it is
// believed, otherwise the slot is treated as "nothing" this round. Null
// responses are never confirmed — a lost probe only delays discovery, it
// cannot forge an edge. With Confirm <= 1 the first response wins, exactly
// as before.
func (r *run) confirmResponse(s simnet.Route, first simnet.ProbeResponse) simnet.ProbeResponse {
	k := r.cfg.Confirm
	if k <= 1 || first.Kind == simnet.RespNothing {
		return first
	}
	// At most 2k−1 distinct responses: a short list beats a map.
	type vote struct {
		resp simnet.ProbeResponse
		n    int
	}
	var buf [4]vote
	votes := append(buf[:0], vote{first, 1})
	for samples := 1; samples < 2*k-1; samples++ {
		resp := r.probeOnce(s)
		i := 0
		for i < len(votes) && votes[i].resp != resp {
			i++
		}
		if i == len(votes) {
			votes = append(votes, vote{resp, 0})
		}
		if votes[i].n++; votes[i].n >= k {
			return resp
		}
	}
	return simnet.ProbeResponse{Kind: simnet.RespNothing}
}

// prune implements the PRUNE stage: "For each vertex v, if v.kind = switch
// and degree(v) = 1, delete" — repeated until stable. Degree-0 switches
// (fully disconnected by earlier deletions) are removed as well.
func (r *run) prune() {
	if r.tracing() {
		r.model.onDelete = func(id int) {
			r.cfg.Tracer.Instant("mapper", "prune", r.p.Clock(), obs.Int("vertex", id))
		}
		r.cfg.Tracer.Begin("mapper", "prune", r.p.Clock())
		defer func() { r.cfg.Tracer.End(r.p.Clock()) }()
	}
	pruned := r.model.prune(r.p.LocalHost())
	r.stats.PrunedVerts += pruned
	r.m.pruned.Add(int64(pruned))
	// Final snapshot after the prune, mirroring Fig 8's plummet.
	if r.cfg.Snapshots {
		r.series = append(r.series, Snapshot{
			Exploration: r.stats.Explorations + 1,
			Vertices:    r.model.NumVertices(),
			Edges:       r.model.NumEdges(),
			Frontier:    0,
		})
	}
}

// prune removes degree<=1 switch vertices repeatedly, then host vertices
// stranded by the deletions (keepHost survives regardless). It returns the
// number of vertices deleted.
func (m *Model) prune(keepHost string) int {
	pruned := 0
	for {
		deleted := false
		for _, v := range m.verts {
			if !v.deleted && v.kind == topology.SwitchNode && m.degree(v) <= 1 {
				m.deleteVertex(v)
				pruned++
				deleted = true
			}
		}
		if !deleted {
			break
		}
	}
	for _, v := range m.verts {
		if !v.deleted && v.kind == topology.HostNode && m.degree(v) == 0 && v.name != keepHost {
			m.deleteVertex(v)
			pruned++
		}
	}
	return pruned
}
