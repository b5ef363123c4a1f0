package mapper

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"sanmap/internal/simnet"
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
// snapshot series).
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
// calls, and the Fig 8 series is analysis-only. The serial self-healing
// path — what a serving daemon runs — has no such state.
func checkpointable(cfg Config) error {
	switch {
	case cfg.Pipeline.Window > 1:
		return fmt.Errorf("%w: pipelined window %d", ErrUncheckpointable, cfg.Pipeline.Window)
	case cfg.Snapshots:
		return fmt.Errorf("%w: snapshot series enabled", ErrUncheckpointable)
	}
	return nil
}

// b2i renders a flag as the 0/1 the checkpoint format stores.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// appendConfig appends the fields a restore must agree on.
func (r *run) appendConfig(b []byte) []byte {
	cfg := r.cfg
	// The trailing 1 is the column of a retired switch (skip slots that
	// already hold an edge) that was never anything but on.
	return appendFields(b, "config", cfg.Depth, r.model.maxPorts, cfg.Confirm, cfg.FaultBudget,
		int(cfg.Policy), int(cfg.ProbeOrder), int(cfg.TurnOrder),
		b2i(cfg.EliminateProbes), 1)
}

// appendFields appends key and then each value, each after one space.
func appendFields(b []byte, key string, vals ...int) []byte {
	b = append(b, key...)
	for _, v := range vals {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// appendQuotedRoute appends r's String rendering in double quotes — the
// %q of it: route text is signs and digits, or ε, and never needs escaping.
func appendQuotedRoute(b []byte, r simnet.Route) []byte {
	b = append(b, '"')
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
	b = append(appendFields(b, "heal", s.heal.round, b2i(s.heal.sweepDone), s.heal.dropped,
		b2i(s.heal.done), b2i(r.partial)), '\n')
	b = append(appendFields(b, "stats", r.stats.Explorations, r.stats.SkippedJobs, r.stats.Merges,
		r.stats.PrunedVerts, r.stats.Inconsistent, r.stats.EliminatedPro, r.stats.Contradictions,
		r.stats.Reexplored), '\n')
	b = append(appendFields(b, "model", m.nextID, m.Inconsistencies), '\n')

	b = append(appendFields(b, "verts", len(live)), '\n')
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
		b = appendFields(b, "v", v.id)
		b = append(b, ' ', kind)
		b = appendFields(b, "", b2i(v.explored), wc, wlo, whi)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, v.name)
		b = append(b, ' ')
		b = append(appendQuotedRoute(b, v.probe), '\n')
	}

	// Edges are enumerated once, in the deterministic walk order
	// export uses (vertex creation order, sorted slots, slot-list
	// order); the slot lines then record, per (vertex, slot), the indices
	// into that enumeration in list order. List order is semantic: export
	// trusts the oldest deduction in a conflicted slot.
	edgeIdx := make(map[*Edge]int, m.liveEdges)
	edges := make([]*Edge, 0, m.liveEdges)
	nSlots := 0
	var slotKeys []int
	for _, v := range live {
		slotKeys = slotKeys[:0]
		for i := range v.slots {
			slotKeys = append(slotKeys, i)
		}
		slices.Sort(slotKeys)
		for _, i := range slotKeys {
			refs := 0
			for _, e := range v.slots[i] {
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
					side = appendFields(side, "s", v.id, i)
				}
				side = appendFields(side, "", idx)
				refs++
			}
			if refs > 0 {
				side = append(side, '\n')
				nSlots++
			}
		}
	}
	b = append(appendFields(b, "edges", len(edges)), '\n')
	for _, e := range edges {
		b = append(appendFields(b, "e", e.a.id, e.ai, e.b.id, e.bi), '\n')
	}
	b = append(appendFields(b, "slots", nSlots), '\n')
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
		side = appendFields(side, "j", root.id, jb.entry+shift)
		side = append(side, ' ')
		side = append(appendQuotedRoute(side, jb.route), '\n')
		nFront++
	}
	b = append(appendFields(b, "front", nFront), '\n')
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
	b = append(appendFields(b, "stale", len(stale)), '\n')
	for _, st := range stale {
		b = append(appendFields(b, "c", st.id, st.n), '\n')
	}

	b = append(appendFields(b, "obslog", len(r.obs)), '\n')
	for _, o := range r.obs {
		b = strconv.AppendInt(append(b, "o "...), int64(o.At), 10)
		b = strconv.AppendQuote(append(b, ' '), o.What)
		b = strconv.AppendQuote(append(b, ' '), o.Probe)
		b = append(b, '\n')
	}
	b = append(b, "end\n"...)
	s.ckptLen = len(b)
	return b, nil
}

// ckptReader is a line-oriented parser with positioned errors.
type ckptReader struct {
	sc   *bufio.Scanner
	line int
}

func (cr *ckptReader) next() (string, error) {
	if !cr.sc.Scan() {
		if err := cr.sc.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("%w: truncated at line %d", ErrBadCheckpoint, cr.line)
	}
	cr.line++
	return cr.sc.Text(), nil
}

func (cr *ckptReader) errf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrBadCheckpoint, cr.line, fmt.Sprintf(format, args...))
}

// fields splits a line, checks the keyword and an exact argument count.
func (cr *ckptReader) fields(line, key string, n int) ([]string, error) {
	f := strings.Fields(line)
	if len(f) == 0 || f[0] != key {
		return nil, cr.errf("want %q record, got %q", key, line)
	}
	if n >= 0 && len(f)-1 != n {
		return nil, cr.errf("%s record wants %d fields, got %d", key, n, len(f)-1)
	}
	return f[1:], nil
}

// ints reads the next line as a key record of exactly n integer fields
// (n < 0: any number).
func (cr *ckptReader) ints(key string, n int) ([]int, error) {
	line, err := cr.next()
	if err != nil {
		return nil, err
	}
	f, err := cr.fields(line, key, n)
	if err != nil {
		return nil, err
	}
	v, err := atoiAll(f)
	if err != nil {
		return nil, cr.errf("%s: %v", key, err)
	}
	return v, nil
}

func atoiAll(fields []string) ([]int, error) {
	out := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// splitQuoted splits a line of the form "key n... q... q..." where the
// trailing fields are Go-quoted strings (which may contain spaces).
func splitQuoted(s string, nPlain, nQuoted int) (plain []string, quoted []string, err error) {
	rest := s
	for i := 0; i < nPlain; i++ {
		rest = strings.TrimLeft(rest, " ")
		j := strings.IndexByte(rest, ' ')
		if j < 0 {
			return nil, nil, io.ErrUnexpectedEOF
		}
		plain = append(plain, rest[:j])
		rest = rest[j:]
	}
	for i := 0; i < nQuoted; i++ {
		rest = strings.TrimLeft(rest, " ")
		if len(rest) == 0 || rest[0] != '"' {
			return nil, nil, fmt.Errorf("want quoted field in %q", s)
		}
		// Find the closing quote, honouring escapes.
		j := 1
		for j < len(rest) {
			if rest[j] == '\\' {
				j += 2
				continue
			}
			if rest[j] == '"' {
				break
			}
			j++
		}
		if j >= len(rest) {
			return nil, nil, fmt.Errorf("unterminated quote in %q", s)
		}
		q, err := strconv.Unquote(rest[:j+1])
		if err != nil {
			return nil, nil, err
		}
		quoted = append(quoted, q)
		rest = rest[j+1:]
	}
	if strings.TrimSpace(rest) != "" {
		return nil, nil, fmt.Errorf("trailing junk in %q", s)
	}
	return plain, quoted, nil
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
	cfg := BuildConfig(opts...)
	if err := checkpointable(cfg); err != nil {
		return nil, err
	}
	r, err := newRun(p, cfg)
	if err != nil {
		return nil, err
	}

	cr := &ckptReader{sc: bufio.NewScanner(bytes.NewReader(data))}
	cr.sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line, err := cr.next()
	if err != nil {
		return nil, err
	}
	if line != checkpointMagic {
		return nil, cr.errf("bad magic %q", line)
	}
	line, err = cr.next()
	if err != nil {
		return nil, err
	}
	if want := string(r.appendConfig(nil)); line != want {
		return nil, fmt.Errorf("%w: checkpoint %q vs session %q", ErrCheckpointMismatch, line, want)
	}

	s := &Session{r: r}

	hv, err := cr.ints("heal", 5)
	if err != nil {
		return nil, err
	}
	s.heal = healState{round: hv[0], sweepDone: hv[1] != 0, dropped: hv[2], done: hv[3] != 0}
	r.partial = hv[4] != 0

	sv, err := cr.ints("stats", 8)
	if err != nil {
		return nil, err
	}
	r.stats.Explorations, r.stats.SkippedJobs, r.stats.Merges, r.stats.PrunedVerts = sv[0], sv[1], sv[2], sv[3]
	r.stats.Inconsistent, r.stats.EliminatedPro, r.stats.Contradictions, r.stats.Reexplored = sv[4], sv[5], sv[6], sv[7]

	mv, err := cr.ints("model", 2)
	if err != nil {
		return nil, err
	}
	m := r.model
	m.Inconsistencies = mv[1]

	count := func(key string) (int, error) {
		v, err := cr.ints(key, 1)
		if err != nil {
			return 0, err
		}
		// Every record takes at least one byte, so a count beyond the
		// image's length is corrupt — and must not size an allocation.
		if v[0] < 0 || v[0] > len(data) {
			return 0, cr.errf("%s count %d", key, v[0])
		}
		return v[0], nil
	}

	// verts
	nVerts, err := count("verts")
	if err != nil {
		return nil, err
	}
	byID := make(map[int]*Vertex, nVerts)
	for i := 0; i < nVerts; i++ {
		line, err := cr.next()
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(line, "v ") {
			return nil, cr.errf("want vertex record, got %q", line)
		}
		plain, quoted, err := splitQuoted(line[2:], 6, 2)
		if err != nil {
			return nil, cr.errf("vertex: %v", err)
		}
		iv, err := atoiAll([]string{plain[0], plain[2], plain[3], plain[4], plain[5]})
		if err != nil {
			return nil, cr.errf("vertex: %v", err)
		}
		kind := topology.SwitchNode
		if plain[1] == "h" {
			kind = topology.HostNode
		} else if plain[1] != "s" {
			return nil, cr.errf("vertex kind %q", plain[1])
		}
		probe, err := simnet.ParseRoute(quoted[1])
		if err != nil {
			return nil, cr.errf("vertex route: %v", err)
		}
		if _, dup := byID[iv[0]]; dup {
			return nil, cr.errf("duplicate vertex id %d", iv[0])
		}
		v := &Vertex{id: iv[0], kind: kind, name: quoted[0], probe: probe,
			explored: iv[1] != 0, slots: make(map[int][]*Edge)}
		if iv[2] != 0 {
			// Re-pin the serialized window memo. Restore fills slots by
			// direct append (never insertSide), so editGen stays at its
			// NewModel value and the memo is live exactly as it was.
			v.winLo, v.winHi, v.winGen = iv[3], iv[4], m.editGen
		}
		byID[v.id] = v
		m.verts = append(m.verts, v)
		m.liveVerts++
		if kind == topology.HostNode {
			m.hostByName[v.name] = v
		}
		if v.id >= mv[0] {
			return nil, cr.errf("vertex id %d outside nextID %d", v.id, mv[0])
		}
	}
	m.nextID = mv[0]

	// edges
	nEdges, err := count("edges")
	if err != nil {
		return nil, err
	}
	edges := make([]*Edge, nEdges)
	for i := 0; i < nEdges; i++ {
		ev, err := cr.ints("e", 4)
		if err != nil {
			return nil, err
		}
		a, okA := byID[ev[0]]
		b, okB := byID[ev[2]]
		if !okA || !okB {
			return nil, cr.errf("edge references unknown vertex (%d, %d)", ev[0], ev[2])
		}
		edges[i] = &Edge{a: a, ai: ev[1], b: b, bi: ev[3]}
	}
	m.liveEdges = nEdges

	// slots
	nSlots, err := count("slots")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nSlots; i++ {
		lv, err := cr.ints("s", -1)
		if err != nil {
			return nil, err
		}
		if len(lv) < 3 {
			return nil, cr.errf("slot record wants at least 3 fields")
		}
		v, ok := byID[lv[0]]
		if !ok {
			return nil, cr.errf("slot references unknown vertex %d", lv[0])
		}
		for _, ref := range lv[2:] {
			if ref < 0 || ref >= nEdges {
				return nil, cr.errf("slot references unknown edge %d", ref)
			}
			v.slots[lv[1]] = append(v.slots[lv[1]], edges[ref])
		}
	}

	// front
	nFront, err := count("front")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nFront; i++ {
		line, err := cr.next()
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(line, "j ") {
			return nil, cr.errf("want frontier record, got %q", line)
		}
		plain, quoted, err := splitQuoted(line[2:], 2, 1)
		if err != nil {
			return nil, cr.errf("frontier: %v", err)
		}
		jv, err := atoiAll(plain)
		if err != nil {
			return nil, cr.errf("frontier: %v", err)
		}
		v, ok := byID[jv[0]]
		if !ok {
			return nil, cr.errf("frontier references unknown vertex %d", jv[0])
		}
		route, err := simnet.ParseRoute(quoted[0])
		if err != nil {
			return nil, cr.errf("frontier route: %v", err)
		}
		r.front = append(r.front, job{v: v, route: route, entry: jv[1]})
	}

	// stale
	nStale, err := count("stale")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nStale; i++ {
		cv, err := cr.ints("c", 2)
		if err != nil {
			return nil, err
		}
		v, ok := byID[cv[0]]
		if !ok {
			return nil, cr.errf("stale references unknown vertex %d", cv[0])
		}
		r.staleCount[v] = cv[1]
	}

	// obslog
	nObs, err := count("obslog")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nObs; i++ {
		line, err := cr.next()
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(line, "o ") {
			return nil, cr.errf("want observation record, got %q", line)
		}
		plain, quoted, err := splitQuoted(line[2:], 1, 2)
		if err != nil {
			return nil, cr.errf("observation: %v", err)
		}
		at, err := strconv.ParseInt(plain[0], 10, 64)
		if err != nil {
			return nil, cr.errf("observation: %v", err)
		}
		r.obs = append(r.obs, Observation{At: time.Duration(at), What: quoted[0], Probe: quoted[1]})
	}

	line, err = cr.next()
	if err != nil {
		return nil, err
	}
	if line != "end" {
		return nil, cr.errf("want end, got %q", line)
	}

	if _, ok := m.hostByName[p.LocalHost()]; !ok {
		return nil, fmt.Errorf("%w: mapping host %q missing from checkpoint", ErrCheckpointMismatch, p.LocalHost())
	}
	return s, nil
}
