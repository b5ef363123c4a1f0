package mapper

import (
	"errors"
	"sort"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Session is a fault-tolerant mapping session: a run whose model graph
// survives across calls, so a network change can be healed incrementally
// (§5: "it is possible to update an existing map much faster than mapping
// from scratch"). Map performs the initial exploration; Remap verifies the
// committed map against the live network, drops edges that no longer
// answer, re-explores the contradicted regions over fresh routes, and
// deletes whatever the surviving map can no longer reach.
type Session struct {
	r *run
	// hook is the step observer installed by OnStep: it fires after every
	// completed heal phase (sweep, explore drain, map completion) at a
	// point where Checkpoint captures a resumable state. A hook error
	// aborts the call with the session still intact and checkpointable —
	// returning ErrSuspended is the cooperative-suspend protocol.
	hook func(Step) error
	// heal is the Remap state machine position, persisted by Checkpoint so
	// a restored session resumes mid-Remap instead of starting over.
	heal healState
}

// healState is the resumable position inside one Remap call.
type healState struct {
	round     int  // verify→re-explore rounds completed or in progress
	sweepDone bool // this round's sweep ran; the explore drain has not
	dropped   int  // edges dropped by this round's sweep
	done      bool // a sweep found nothing wrong; Remap only needs result()
}

// NewSession builds a self-healing session over the prober; the options are
// as for Run, which is a session's first Map with the strict refusal rule.
func NewSession(p simnet.Prober, opts ...Option) (*Session, error) {
	r, err := newRun(p, BuildConfig(opts...))
	if err != nil {
		return nil, err
	}
	r.initialize()
	return &Session{r: r}, nil
}

// Map runs the initial exploration and returns its Result. The
// session keeps the model for later Remap calls. The step hook (OnStep)
// fires once with StepMap after the frontier drains; on a session restored
// from a post-map checkpoint the drain is a no-op and Map just re-derives
// the Result.
func (s *Session) Map() (*Result, error) {
	if err := s.r.runLoop(); err != nil {
		return nil, err
	}
	if err := s.emitStep(StepMap); err != nil {
		return nil, err
	}
	return s.r.result()
}

// healRounds bounds the verify→re-explore iterations of one Remap: each
// round can only churn regions another fault touched, so a handful suffices
// on any schedule the fault budget would tolerate anyway.
const healRounds = 4

// Remap heals the committed map against the current network: it sweeps the
// model (verifying every committed edge with a freshly derived route),
// drops edges that fail twice, re-explores the switches they touched, and
// repeats until a sweep finds nothing wrong, the round bound trips, or the
// fault budget is spent. Because occupied surviving slots are skipped and
// verification costs one probe per live edge, an incremental Remap after a
// small fault is far cheaper than a from-scratch run.
// Remap is a resumable state machine over Session.heal: the step hook
// fires after each sweep (StepSweep) and each explore drain (StepExplore),
// and a checkpoint taken at either boundary restores to exactly this
// position — a resumed Remap re-issues no probe an interrupted one already
// paid for. The probe sequence is byte-identical to the pre-checkpoint
// single-loop implementation.
func (s *Session) Remap() (*Result, error) {
	for !s.heal.done && s.heal.round < healRounds {
		if s.r.budgetSpent() {
			break
		}
		if !s.heal.sweepDone {
			dropped, err := s.r.sweep()
			if err != nil {
				return nil, err
			}
			s.heal.dropped = dropped
			s.heal.sweepDone = true
			if err := s.emitStep(StepSweep); err != nil {
				return nil, err
			}
		}
		if err := s.r.runLoop(); err != nil {
			return nil, err
		}
		s.heal.sweepDone = false
		s.heal.done = s.heal.dropped == 0
		s.heal.round++
		if err := s.emitStep(StepExplore); err != nil {
			return nil, err
		}
	}
	s.heal = healState{}
	return s.r.result()
}

// sweepItem is one BFS visit of the verification sweep: a committed switch
// vertex, the fresh route that reaches it, and the frame index of the port
// that route enters through.
type sweepItem struct {
	v     *Vertex
	entry int
	route simnet.Route
}

// sweep walks the committed model breadth-first from the mapper's
// attachment switch, re-deriving a fresh route for every vertex it reaches
// (the committed edges themselves define the route: slot i out of a vertex
// entered at index e is turn i−e), and verifies each committed edge with
// one expected-kind probe. An edge that fails twice is dropped and both
// ends are re-enqueued for scoped re-exploration over their fresh routes —
// NOT their (possibly fault-crossing) discovery routes. Live switch
// vertices the BFS never reaches are unreachable over committed edges and
// are deleted; prune cleans up the stranded hosts. Returns the number of
// edges dropped.
func (r *run) sweep() (int, error) {
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Begin("mapper", "sweep", r.p.Clock())
		defer func() { r.cfg.Tracer.End(r.p.Clock()) }()
	}
	hv, ok := r.model.hostByName[r.p.LocalHost()]
	if !ok {
		return 0, errors.New("mapper: mapping host missing from session model")
	}
	h0, _ := find(hv)
	var rootEdge *Edge
	for _, e := range h0.slots[0] {
		if !e.deleted {
			rootEdge = e
			break
		}
	}
	if rootEdge == nil {
		return 0, nil // never attached; nothing committed to verify
	}
	rootV, rootIdx := rootEdge.otherSide(h0, 0)
	rootV, shift := find(rootV)
	rootIdx += shift

	dropped := 0
	queue := []sweepItem{{v: rootV, entry: rootIdx, route: simnet.Route{}}}
	visited := map[*Vertex]bool{rootV: true}
	checked := map[*Edge]bool{rootEdge: true}
	var slotIdx []int
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		v := it.v
		if v.deleted {
			continue
		}
		// Sorted slot order: the sweep's probe sequence must not depend on
		// map iteration order.
		slotIdx = slotIdx[:0]
		for i := range v.slots {
			slotIdx = append(slotIdx, i)
		}
		sort.Ints(slotIdx)
		for _, i := range slotIdx {
			for _, e := range v.slots[i] {
				if e.deleted || checked[e] {
					continue
				}
				checked[e] = true
				if e.a == e.b {
					continue // loopback cable: no distinct far side to confirm
				}
				t := i - it.entry
				if mt := r.cfg.MaxPorts - 1; t == 0 || t > mt || t < -mt {
					continue // unroutable from this entry; another visit may cover it
				}
				if len(it.route) >= r.cfg.Depth {
					continue
				}
				far, fidx := e.otherSide(v, i)
				far, fshift := find(far)
				fidx += fshift
				probeStr := it.route.Extend(simnet.Turn(t))
				ok := r.verifyEdge(far, probeStr)
				if !ok {
					ok = r.verifyEdge(far, probeStr) // one confirmation retry
				}
				if !ok {
					r.model.dropEdge(e)
					dropped++
					r.stats.Contradictions++
					r.m.contradictions.Inc()
					r.observe("edge-drop", probeStr)
					r.reexploreAt(v, it.route, it.entry)
					continue
				}
				if far.kind == topology.SwitchNode && !visited[far] {
					visited[far] = true
					queue = append(queue, sweepItem{v: far, entry: fidx, route: probeStr})
				}
			}
		}
	}

	for _, v := range r.model.liveVertices() {
		if v.kind == topology.SwitchNode && !visited[v] {
			r.observe("unreachable-drop", v.probe)
			r.model.deleteVertex(v)
		}
	}
	return dropped, nil
}

// verifyEdge sends the one probe whose answer the committed edge predicts:
// the far host's name for host edges, a switch loopback for switch edges.
func (r *run) verifyEdge(far *Vertex, s simnet.Route) bool {
	if far.kind == topology.HostNode {
		res := simnet.Do(r.p, simnet.Probe{Kind: simnet.ProbeHost, Route: s})
		return res.OK && res.Host == far.name
	}
	return simnet.Do(r.p, simnet.Probe{Kind: simnet.ProbeSwitch, Route: s}).OK
}

// reexploreAt clears v's explored bit and re-enqueues it for exploration
// over the given route. Each vertex is re-enqueued at most staleLimit times,
// so a persistently contradicting region degrades into suspect edges
// instead of an endless probe loop.
func (r *run) reexploreAt(v *Vertex, route simnet.Route, entry int) {
	if v.deleted || v.kind != topology.SwitchNode {
		return
	}
	if r.staleCount[v] >= staleLimit {
		return
	}
	r.staleCount[v]++
	v.explored = false
	r.stats.Reexplored++
	r.m.reexplored.Inc()
	r.observe("re-explore", route)
	r.front = append(r.front, job{v: v, route: route, entry: entry})
}

// dropEdge deletes one committed edge in place (both slot lists skip
// deleted edges lazily, exactly as deleteVertex relies on).
func (m *Model) dropEdge(e *Edge) {
	if e.deleted {
		return
	}
	e.deleted = true
	m.liveEdges--
}
