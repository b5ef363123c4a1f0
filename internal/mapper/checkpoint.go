package mapper

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"sanmap/internal/simnet"
	"sanmap/internal/textrec"
	"sanmap/internal/topology"
)

// StepKind classifies the resumable boundaries a Session reaches.
type StepKind uint8

const (
	// StepMap fires once when Map's frontier drains, before the result is
	// assembled — the last point at which the initial exploration can be
	// checkpointed.
	StepMap StepKind = iota
	// StepSweep fires after each Remap verification sweep, with the
	// re-explore frontier enqueued but not yet probed.
	StepSweep
	// StepExplore fires after a Remap round's explore drain, unless the
	// round's sweep dropped nothing: that drain probes nothing, so the
	// boundary holds no state the StepSweep before it lacks.
	StepExplore
)

// String names the step kind.
func (k StepKind) String() string {
	switch k {
	case StepMap:
		return "map"
	case StepSweep:
		return "sweep"
	case StepExplore:
		return "explore"
	}
	return fmt.Sprintf("step(%d)", uint8(k))
}

// Step describes one resumable boundary: which phase completed, the heal
// round it belongs to, and how many edges that round's sweep dropped.
type Step struct {
	Kind    StepKind
	Round   int
	Dropped int
}

// ErrSuspended is the cooperative-suspend sentinel: a step hook returns it
// (possibly wrapped) to abort Map/Remap at a checkpointable boundary. The
// session stays intact — Checkpoint still works, and calling Map/Remap
// again continues from the suspended position.
var ErrSuspended = errors.New("mapper: session suspended by step hook")

// ErrUncheckpointable reports a session whose configuration carries state
// the checkpoint format cannot capture (pipelined probe window, Fig 8
// snapshot series, coupon phase).
var ErrUncheckpointable = errors.New("mapper: session configuration not checkpointable")

// ErrCheckpointMismatch reports a checkpoint restored under a different
// configuration than the one that wrote it.
var ErrCheckpointMismatch = errors.New("mapper: checkpoint does not match session configuration")

// ErrBadCheckpoint reports a syntactically invalid or truncated checkpoint.
var ErrBadCheckpoint = errors.New("mapper: malformed checkpoint")

// OnStep installs the step observer (nil uninstalls). The hook fires after
// every completed phase — see Step — at a point where Checkpoint captures
// an exactly-resumable state; an error return aborts the surrounding
// Map/Remap call with the hook's error wrapped, leaving the session
// checkpointable. Daemons use the hook to write their job files; tests use it
// with ErrSuspended to cut a run at every boundary.
func (s *Session) OnStep(f func(Step) error) { s.hook = f }

func (s *Session) emitStep(k StepKind) error {
	if s.hook == nil {
		return nil
	}
	if err := s.hook(Step{Kind: k, Round: s.heal.round, Dropped: s.heal.dropped}); err != nil {
		return fmt.Errorf("mapper: step hook at %v: %w", k, err)
	}
	return nil
}

// checkpointMagic versions the serialized session format.
const checkpointMagic = "sanmap-checkpoint 1"

// checkpointable rejects configurations whose probe-engine state the text
// format cannot capture: a pipelined window carries its counters across
// calls, the Fig 8 series is analysis-only, and a coupon session's first
// phase draws from an rng the image cannot hold. The serial self-healing
// path — what a serving daemon runs — has no such state.
func checkpointable(cfg Config) error {
	switch {
	case cfg.Pipeline.Window > 1:
		return fmt.Errorf("%w: pipelined window %d", ErrUncheckpointable, cfg.Pipeline.Window)
	case cfg.Snapshots:
		return fmt.Errorf("%w: snapshot series enabled", ErrUncheckpointable)
	case cfg.Coupons > 0:
		return fmt.Errorf("%w: coupon phase", ErrUncheckpointable)
	}
	return nil
}

// appendConfig appends the fields a restore must agree on.
func (r *run) appendConfig(b []byte) []byte {
	cfg := r.cfg
	// The trailing 1 is the column of a retired switch (skip slots that
	// already hold an edge) that was never anything but on.
	return textrec.AppendInts(b, "config", cfg.Depth, r.model.maxPorts, cfg.Confirm, cfg.FaultBudget,
		int(cfg.Policy), int(cfg.ProbeOrder), int(cfg.TurnOrder),
		textrec.Flag(cfg.EliminateProbes), 1)
}

// appendQuotedRoute appends one space and r's String rendering in double
// quotes — textrec.AppendQuoted of it: route text is signs and digits, or
// ε, and never needs escaping.
func appendQuotedRoute(b []byte, r simnet.Route) []byte {
	b = append(b, ' ', '"')
	if len(r) == 0 {
		b = append(b, "ε"...)
	} else {
		b = r.AppendText(b)
	}
	return append(b, '"')
}

// Checkpoint serializes the session — model graph, heal position, pending
// re-explore frontier, staleness caps, statistics and fault log — into a
// self-contained text image. Restoring the image into a fresh process with
// RestoreSession and calling Remap continues the interrupted run: against
// the same network state it issues exactly the probes the uninterrupted
// run would have issued from this boundary (monotone progress). Call it
// from an OnStep hook or between Map/Remap calls; mid-explore state is not
// capturable by design.
func (s *Session) Checkpoint() ([]byte, error) {
	r := s.r
	if err := checkpointable(r.cfg); err != nil {
		return nil, err
	}
	m := r.model
	live := m.liveVertices()
	// The image is appended into one buffer sized from the previous one
	// (from the model's size on the first call); the slot and frontier
	// lines, whose counts precede them, go through a second.
	size := s.ckptLen
	if size == 0 {
		size = 64*len(live) + 40*m.liveEdges + 64*len(r.obs) + 512
	}
	b := make([]byte, 0, size+size/8)
	side := make([]byte, 0, 24*m.liveEdges+64)

	b = append(b, checkpointMagic+"\n"...)
	b = append(r.appendConfig(b), '\n')
	b = append(textrec.AppendInts(b, "heal", s.heal.round, textrec.Flag(s.heal.sweepDone), s.heal.dropped,
		textrec.Flag(s.heal.done), textrec.Flag(r.partial)), '\n')
	b = append(textrec.AppendInts(b, "stats", r.stats.Explorations, r.stats.SkippedJobs, r.stats.Merges,
		r.stats.PrunedVerts, r.stats.Inconsistent, r.stats.EliminatedPro, r.stats.Contradictions,
		r.stats.Reexplored), '\n')
	b = append(textrec.AppendInts(b, "model", m.nextID, m.Inconsistencies), '\n')

	b = append(textrec.AppendInts(b, "verts", len(live)), '\n')
	for _, v := range live {
		kind := byte('s')
		if v.kind == topology.HostNode {
			kind = 'h'
		}
		// The port-window memo is part of the observable state: dropEdge
		// leaves editGen alone, so a window narrowed by a since-dropped
		// edge keeps constraining probe elimination and the export base
		// until the next structural edit. Serialize the cache verbatim
		// (valid-flag, lo, hi) so a restored session bases ports — and
		// eliminates probes — exactly like the uninterrupted one.
		wc, wlo, whi := 0, 0, 0
		if v.winGen == m.editGen {
			wc, wlo, whi = 1, v.winLo, v.winHi
		}
		b = textrec.AppendInts(b, "v", v.id)
		b = append(b, ' ', kind)
		b = textrec.AppendInts(b, "", textrec.Flag(v.explored), wc, wlo, whi)
		b = textrec.AppendQuoted(b, v.name)
		b = append(appendQuotedRoute(b, v.probe), '\n')
	}

	// Edges are enumerated once, in the deterministic walk order
	// export uses (vertex creation order, slot index order, slot-list
	// order); the slot lines then record, per (vertex, slot), the indices
	// into that enumeration in list order. List order is semantic: export
	// trusts the oldest deduction in a conflicted slot.
	edgeIdx := make(map[*Edge]int, m.liveEdges)
	edges := make([]*Edge, 0, m.liveEdges)
	nSlots := 0
	for _, v := range live {
		for _, sl := range v.slots {
			i := sl.idx
			refs := 0
			for e := range sl.all() {
				if e.deleted {
					continue
				}
				idx, ok := edgeIdx[e]
				if !ok {
					idx = len(edges)
					edgeIdx[e] = idx
					edges = append(edges, e)
				}
				if refs == 0 {
					side = textrec.AppendInts(side, "s", v.id, i)
				}
				side = textrec.AppendInts(side, "", idx)
				refs++
			}
			if refs > 0 {
				side = append(side, '\n')
				nSlots++
			}
		}
	}
	b = append(textrec.AppendInts(b, "edges", len(edges)), '\n')
	for _, e := range edges {
		b = append(textrec.AppendInts(b, "e", e.a.id, e.ai, e.b.id, e.bi), '\n')
	}
	b = append(textrec.AppendInts(b, "slots", nSlots), '\n')
	b = append(b, side...)

	// Frontier jobs, resolved through the union-find: serializing the live
	// root plus the shifted entry index is observationally identical to
	// serializing the original reference (explore re-resolves either way).
	side = side[:0]
	nFront := 0
	for _, jb := range r.front {
		root, shift := find(jb.v)
		if root.deleted {
			continue
		}
		side = textrec.AppendInts(side, "j", root.id, jb.entry+shift)
		side = append(appendQuotedRoute(side, jb.route), '\n')
		nFront++
	}
	b = append(textrec.AppendInts(b, "front", nFront), '\n')
	b = append(b, side...)

	// Stale caps keyed by live roots only: entries for merged or deleted
	// vertices can never be read again (markStale and reexploreAt always
	// resolve to a live root first).
	type staleLine struct {
		id, n int
	}
	stale := make([]staleLine, 0, len(r.staleCount))
	for v, n := range r.staleCount {
		if !v.deleted {
			stale = append(stale, staleLine{id: v.id, n: n})
		}
	}
	slices.SortFunc(stale, func(x, y staleLine) int { return cmp.Compare(x.id, y.id) })
	b = append(textrec.AppendInts(b, "stale", len(stale)), '\n')
	for _, st := range stale {
		b = append(textrec.AppendInts(b, "c", st.id, st.n), '\n')
	}

	b = append(textrec.AppendInts(b, "obslog", len(r.obs)), '\n')
	for _, o := range r.obs {
		b = textrec.AppendQuoted(textrec.AppendInts(b, "o", int(o.At)), o.What)
		b = append(textrec.AppendQuoted(b, o.Probe), '\n')
	}
	b = append(b, "end\n"...)
	s.ckptLen = len(b)
	return b, nil
}

// RestoreSession reconstructs a checkpointed session over a fresh prober
// (typically in a brand-new process after a crash). The options must
// resolve to the configuration that wrote the checkpoint — the config echo
// is verified, not adopted — and the prober must face the same network
// state; under those conditions the restored session's Remap is
// probe-for-probe identical to the uninterrupted run's remainder.
//
// The model graph is rebuilt structurally — vertices, edges and slot lists
// are placed exactly as serialized, bypassing addEdge's merge machinery —
// so restoring replays no deductions and re-fires no contradiction hooks.
func RestoreSession(p simnet.Prober, data []byte, opts ...Option) (*Session, error) {
	cfg := buildConfig(opts...)
	if err := checkpointable(cfg); err != nil {
		return nil, err
	}
	r, err := newRun(p, cfg)
	if err != nil {
		return nil, err
	}

	cr := textrec.NewReader(data, ErrBadCheckpoint)
	cr.Expect(checkpointMagic)
	if line, want := cr.Line(), r.appendConfig(nil); cr.Err() == nil && !bytes.Equal(line, want) {
		return nil, fmt.Errorf("%w: checkpoint %q vs session %q", ErrCheckpointMismatch, line, want)
	}

	s := &Session{r: r}
	hv := cr.Ints("heal", 5)
	s.heal = healState{round: hv[0], sweepDone: hv[1] != 0, dropped: hv[2], done: hv[3] != 0}
	r.partial = hv[4] != 0
	sv := cr.Ints("stats", 8)
	r.stats.Explorations, r.stats.SkippedJobs, r.stats.Merges, r.stats.PrunedVerts = sv[0], sv[1], sv[2], sv[3]
	r.stats.Inconsistent, r.stats.EliminatedPro, r.stats.Contradictions, r.stats.Reexplored = sv[4], sv[5], sv[6], sv[7]
	mv := cr.Ints("model", 2)
	m := r.model
	m.nextID, m.Inconsistencies = mv[0], mv[1]

	// Each loop stops at the reader's first failure; Err is checked once,
	// after the end record.
	nVerts := cr.Count("verts")
	byID := make(map[int]*Vertex, nVerts)
	vertex := func(id int) *Vertex {
		v := byID[id]
		if v == nil {
			cr.Failf("unknown vertex %d", id)
		}
		return v
	}
	route := func(text string) simnet.Route {
		rt, err := simnet.ParseRoute(text)
		if err != nil {
			cr.Failf("route: %v", err)
		}
		return rt
	}
	for i := 0; i < nVerts && cr.Err() == nil; i++ {
		cr.Next("v")
		id, kind := cr.Int(), cr.Word()
		explored, wc, wlo, whi := cr.Int(), cr.Int(), cr.Int(), cr.Int()
		name, probe := cr.Quoted(), route(cr.Quoted())
		cr.Done()
		switch {
		case cr.Err() != nil:
		case string(kind) != "h" && string(kind) != "s":
			cr.Failf("vertex kind %q", kind)
		case byID[id] != nil:
			cr.Failf("duplicate vertex id %d", id)
		case id >= m.nextID:
			cr.Failf("vertex id %d outside nextID %d", id, m.nextID)
		default:
			v := m.vertChunks.new()
			*v = Vertex{id: id, kind: topology.SwitchNode, name: name, probe: probe,
				explored: explored != 0}
			if kind[0] == 'h' {
				v.kind = topology.HostNode
				m.hostByName[name] = v
			}
			if wc != 0 {
				// Re-pin the serialized window memo. Restore fills slots by
				// direct append (never insertSide), so editGen stays at its
				// NewModel value and the memo is live exactly as it was.
				v.winLo, v.winHi, v.winGen = wlo, whi, m.editGen
			}
			byID[id] = v
			m.verts = append(m.verts, v)
			m.liveVerts++
		}
	}

	edges := make([]*Edge, cr.Count("edges"))
	for i := 0; i < len(edges) && cr.Err() == nil; i++ {
		ev := cr.Ints("e", 4)
		edges[i] = m.edgeChunks.new()
		*edges[i] = Edge{a: vertex(ev[0]), ai: ev[1], b: vertex(ev[2]), bi: ev[3]}
	}
	m.liveEdges = len(edges)

	nSlots := cr.Count("slots")
	for i := 0; i < nSlots && cr.Err() == nil; i++ {
		lv := cr.Ints("s", -1)
		if len(lv) < 3 {
			cr.Failf("slot record wants at least 3 fields")
			break
		}
		v := vertex(lv[0])
		for _, ref := range lv[2:] {
			if v == nil || ref < 0 || ref >= len(edges) {
				cr.Failf("slot references unknown edge %d", ref)
				break
			}
			m.file(v, lv[1], edges[ref])
		}
	}

	nFront := cr.Count("front")
	for i := 0; i < nFront && cr.Err() == nil; i++ {
		cr.Next("j")
		v, entry, probe := vertex(cr.Int()), cr.Int(), route(cr.Quoted())
		cr.Done()
		r.front = append(r.front, job{v: v, route: probe, entry: entry})
	}

	nStale := cr.Count("stale")
	for i := 0; i < nStale && cr.Err() == nil; i++ {
		cv := cr.Ints("c", 2)
		r.staleCount[vertex(cv[0])] = cv[1]
	}

	nObs := cr.Count("obslog")
	for i := 0; i < nObs && cr.Err() == nil; i++ {
		cr.Next("o")
		at, what, probe := cr.Int(), cr.Quoted(), cr.Quoted()
		cr.Done()
		r.obs = append(r.obs, Observation{At: time.Duration(at), What: what, Probe: probe})
	}

	cr.Expect("end")
	cr.End()
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if _, ok := m.hostByName[p.LocalHost()]; !ok {
		return nil, fmt.Errorf("%w: mapping host %q missing from checkpoint", ErrCheckpointMismatch, p.LocalHost())
	}
	return s, nil
}
