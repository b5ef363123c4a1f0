package mapper

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"

	"sanmap/internal/topology"
)

// checkpointFmt is the checkpoint encoder as it was written with bufio and
// fmt, kept as the oracle the append encoder in checkpoint.go must match
// byte for byte (checkpoint_diff_test.go).
func (s *Session) checkpointFmt() ([]byte, error) {
	r := s.r
	if err := checkpointable(r.cfg); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	fmt.Fprintln(w, checkpointMagic)
	fmt.Fprintf(w, "config %d %d %d %d %d %d %d %d 1\n",
		r.cfg.Depth, r.model.maxPorts, r.cfg.Confirm, r.cfg.FaultBudget,
		r.cfg.Policy, r.cfg.ProbeOrder, r.cfg.TurnOrder,
		b2i(r.cfg.EliminateProbes))
	fmt.Fprintf(w, "heal %d %d %d %d %d\n",
		s.heal.round, b2i(s.heal.sweepDone), s.heal.dropped, b2i(s.heal.done), b2i(r.partial))
	fmt.Fprintf(w, "stats %d %d %d %d %d %d %d %d\n",
		r.stats.Explorations, r.stats.SkippedJobs, r.stats.Merges, r.stats.PrunedVerts,
		r.stats.Inconsistent, r.stats.EliminatedPro, r.stats.Contradictions, r.stats.Reexplored)
	m := r.model
	fmt.Fprintf(w, "model %d %d\n", m.nextID, m.Inconsistencies)

	live := m.liveVertices()
	fmt.Fprintf(w, "verts %d\n", len(live))
	for _, v := range live {
		kind := "s"
		if v.kind == topology.HostNode {
			kind = "h"
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
		fmt.Fprintf(w, "v %d %s %d %d %d %d %q %q\n",
			v.id, kind, b2i(v.explored), wc, wlo, whi, v.name, v.probe.String())
	}

	// Edges are enumerated once, in the deterministic walk order
	// export uses (vertex creation order, sorted slots, slot-list
	// order); the slot lines then record, per (vertex, slot), the indices
	// into that enumeration in list order. List order is semantic: export
	// trusts the oldest deduction in a conflicted slot.
	edgeIdx := make(map[*Edge]int)
	var edges []*Edge
	type slotLine struct {
		vid, slot int
		refs      []int
	}
	var slots []slotLine
	var slotKeys []int
	for _, v := range live {
		slotKeys = slotKeys[:0]
		for _, sl := range v.slots {
			slotKeys = append(slotKeys, sl.idx)
		}
		sort.Ints(slotKeys)
		for _, i := range slotKeys {
			var refs []int
			for e := range v.at(i) {
				if e.deleted {
					continue
				}
				idx, ok := edgeIdx[e]
				if !ok {
					idx = len(edges)
					edgeIdx[e] = idx
					edges = append(edges, e)
				}
				refs = append(refs, idx)
			}
			if len(refs) > 0 {
				slots = append(slots, slotLine{vid: v.id, slot: i, refs: refs})
			}
		}
	}
	fmt.Fprintf(w, "edges %d\n", len(edges))
	for _, e := range edges {
		fmt.Fprintf(w, "e %d %d %d %d\n", e.a.id, e.ai, e.b.id, e.bi)
	}
	fmt.Fprintf(w, "slots %d\n", len(slots))
	for _, sl := range slots {
		fmt.Fprintf(w, "s %d %d", sl.vid, sl.slot)
		for _, ref := range sl.refs {
			fmt.Fprintf(w, " %d", ref)
		}
		fmt.Fprintln(w)
	}

	// Frontier jobs, resolved through the union-find: serializing the live
	// root plus the shifted entry index is observationally identical to
	// serializing the original reference (explore re-resolves either way).
	type frontLine struct {
		id, entry int
		route     string
	}
	var front []frontLine
	for _, jb := range r.front {
		root, shift := find(jb.v)
		if root.deleted {
			continue
		}
		front = append(front, frontLine{id: root.id, entry: jb.entry + shift, route: jb.route.String()})
	}
	fmt.Fprintf(w, "front %d\n", len(front))
	for _, f := range front {
		fmt.Fprintf(w, "j %d %d %q\n", f.id, f.entry, f.route)
	}

	// Stale caps keyed by live roots only: entries for merged or deleted
	// vertices can never be read again (markStale and reexploreAt always
	// resolve to a live root first).
	type staleLine struct {
		id, n int
	}
	var stale []staleLine
	for v, n := range r.staleCount {
		if !v.deleted {
			stale = append(stale, staleLine{id: v.id, n: n})
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].id < stale[j].id })
	fmt.Fprintf(w, "stale %d\n", len(stale))
	for _, st := range stale {
		fmt.Fprintf(w, "c %d %d\n", st.id, st.n)
	}

	fmt.Fprintf(w, "obslog %d\n", len(r.obs))
	for _, o := range r.obs {
		fmt.Fprintf(w, "o %d %q %q\n", int64(o.At), o.What, o.Probe)
	}
	fmt.Fprintln(w, "end")
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// b2i renders a flag as the oracle's 0/1; the oracle shares no code with
// the encoder it checks.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
