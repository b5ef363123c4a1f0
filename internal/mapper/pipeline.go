package mapper

import (
	"sanmap/internal/obs"
	"sanmap/internal/simnet"
)

// The pipelined explore path. The paper's cost analysis (§5.2) shows probe
// time is dominated by sequential response timeouts: a miss costs the full
// ResponseTimeout on top of the per-probe host overhead, and most frontier
// probes miss. All candidate turns of one frontier switch are independent
// probes, so the engine prefetches them through a simnet.ProbeWindow with W
// probes in flight — paying the issue overhead serially but overlapping the
// waits — and the serial deduction loop then consumes the prefetched
// responses in its usual order. Because the quiescent transport's response
// to a route is time-invariant, the resulting model (and therefore the
// exported map) is byte-identical to the serial run's; only the virtual
// clock and the speculative probe counts differ.

// initPipeline activates the probe engine when configured. The engine
// inherits the run's metrics registry unless the window config names its
// own, so one WithMetrics covers both layers.
func (r *run) initPipeline() {
	wc := r.cfg.Pipeline
	if wc.Window <= 1 {
		return
	}
	if wc.Metrics == nil {
		wc.Metrics = r.cfg.Metrics
	}
	r.win = simnet.NewProbeWindow(r.p, wc)
}

// finishPipeline folds the engine counters into the run statistics.
func (r *run) finishPipeline() {
	if r.win == nil {
		return
	}
	r.stats.Pipeline = r.win.Stats()
	if r.tracing() {
		r.cfg.Tracer.Instant("mapper", "pipeline", r.p.Clock(), obs.String("stats", r.stats.Pipeline.String()))
	}
}

// exploreStream drives one exploration's probe pairs through a
// simnet.Stream: a sliding lookahead of first-order probes for the upcoming
// candidate turns, with each pair's second-order probe submitted the moment
// its first probe's miss is collected — so the window never drains between
// phases and every response timeout overlaps the issue of later probes.
// Candidates are filtered at submission time under the *current* §3.3
// filters (feasible window, occupied slots); the filters only tighten as
// the exploration proceeds, so speculative waste is bounded by the window
// size, and a turn that passes the filters at consume time has always
// already been submitted.
type exploreStream struct {
	st            *simnet.Stream
	jb            job
	turns         []simnet.Turn
	next          int
	first, second simnet.ProbeKind
	arena         []simnet.Turn          // backing turns of routes, reset per stream
	routes        []simnet.Route         // tag -> route (a capped window of arena)
	tagTurn       []simnet.Turn          // tag -> candidate turn
	phase2        []bool                 // tag -> second-order probe issued
	resp          []simnet.ProbeResponse // tag -> folded pair response
	done          []bool                 // tag -> resp is valid
	used          []bool                 // tag -> resp consumed by the deduction loop
	tiTag         []int                  // candidate index -> tag+1 (0 = not submitted)
}

// beginStream opens the pipelined stream for one exploration.
func (r *run) beginStream(jb job, turns []simnet.Turn) {
	if r.win == nil {
		return
	}
	first, second := r.probeOrder()
	ps := &r.psPool
	ps.st = r.win.Stream()
	ps.jb = jb
	ps.turns = turns
	ps.next = 0
	ps.first, ps.second = first, second
	ps.arena = ps.arena[:0]
	ps.routes = ps.routes[:0]
	ps.tagTurn = ps.tagTurn[:0]
	ps.phase2 = ps.phase2[:0]
	ps.resp = ps.resp[:0]
	ps.done = ps.done[:0]
	ps.used = ps.used[:0]
	if cap(ps.tiTag) < len(turns) {
		ps.tiTag = make([]int, len(turns))
	} else {
		ps.tiTag = ps.tiTag[:len(turns)]
		clear(ps.tiTag)
	}
	r.ps = ps
}

// endStream abandons the remaining lookahead and clears the prefetch state.
func (r *run) endStream() {
	if r.ps != nil {
		r.ps.st.Abandon()
		r.ps = nil
	}
}

// fillStep advances the candidate cursor by one turn, submitting its
// first-order probe when the turn passes the current filters.
func (ps *exploreStream) fillStep(r *run, root *Vertex, entry int) {
	t := ps.turns[ps.next]
	ps.next++
	idx := entry + int(t)
	if r.cfg.EliminateProbes {
		lo, hi := r.model.window(root)
		if !r.model.feasible(idx, lo, hi) {
			return
		}
	}
	if root.occupied(idx) {
		return
	}
	tag := len(ps.routes)
	// A route outlives an arena regrowth (it keeps the old backing array),
	// and the arena is rewritten only by the next stream, by which time
	// every route the deduction loop kept has been copied.
	start := len(ps.arena)
	ps.arena = append(append(ps.arena, ps.jb.route...), t)
	ps.routes = append(ps.routes, ps.arena[start:len(ps.arena):len(ps.arena)])
	ps.tagTurn = append(ps.tagTurn, t)
	ps.phase2 = append(ps.phase2, false)
	ps.resp = append(ps.resp, simnet.ProbeResponse{})
	ps.done = append(ps.done, false)
	ps.used = append(ps.used, false)
	ps.tiTag[ps.next-1] = tag + 1
	ps.st.Submit(simnet.Probe{Kind: ps.first, Route: ps.routes[tag]}, tag)
}

// freeRide reports whether one more speculative submission costs nothing:
// the clock has not yet caught up with the oldest pending completion, so
// the stream would spend the submission's overhead waiting anyway. This
// self-paces the lookahead to the transport's timeout/overhead ratio
// instead of greedily saturating the window — greedy lookahead submits
// probes the tightening filters would have eliminated.
func (ps *exploreStream) freeRide(r *run) bool {
	d, ok := ps.st.NextDone()
	return ok && r.p.Clock() < d
}

// stale reports whether a tag's candidate turn has been ruled out by the
// filters since its submission. The filters only tighten, so a stale turn
// can never be demanded again — its pair needs no second-order probe.
func (ps *exploreStream) stale(r *run, root *Vertex, entry int, tag int) bool {
	idx := entry + int(ps.tagTurn[tag])
	if r.cfg.EliminateProbes {
		lo, hi := r.model.window(root)
		if !r.model.feasible(idx, lo, hi) {
			return true
		}
	}
	return root.occupied(idx)
}

// streamWant resolves the probe pair for the candidate at index ti of the
// turn sequence into the prefetch state: it advances the candidate cursor
// far enough to submit the demanded probe, tops the window up with
// speculative lookahead only while that rides for free, and collects
// results — submitting each pair's second-order probe the moment its first
// probe's miss is retired, so the window never drains between phases. If
// the stream runs dry without covering ti (possible after a mid-exploration
// merge), pairAt falls back to serial probes.
func (r *run) streamWant(root *Vertex, entry int, ti int) {
	ps := r.ps
	if ps == nil {
		return
	}
	for {
		if tag := ps.tiTag[ti] - 1; tag >= 0 && ps.done[tag] && !ps.used[tag] {
			return
		}
		if ps.next <= ti && ps.st.Free() > 0 {
			ps.fillStep(r, root, entry) // the demanded probe itself
			continue
		}
		if ps.next > ti && ps.next < len(ps.turns) && ps.st.Free() > 0 && ps.freeRide(r) {
			ps.fillStep(r, root, entry) // free speculative lookahead
			continue
		}
		if ps.st.Len() == 0 {
			return
		}
		tag, res := ps.st.Collect()
		if !ps.phase2[tag] && !res.OK {
			if ps.stale(r, root, entry, tag) {
				continue // turn ruled out since submission; drop the pair
			}
			ps.phase2[tag] = true
			ps.st.Submit(simnet.Probe{Kind: ps.second, Route: ps.routes[tag]}, tag)
			continue
		}
		kind := ps.first
		if ps.phase2[tag] {
			kind = ps.second
		}
		ps.resp[tag] = pairResponse(kind, res)
		ps.done[tag] = true
	}
}

// pairResponse folds one probe result into the §2.3 response alphabet.
func pairResponse(kind simnet.ProbeKind, res *simnet.ProbeResult) simnet.ProbeResponse {
	if !res.OK {
		return simnet.ProbeResponse{Kind: simnet.RespNothing}
	}
	if kind == simnet.ProbeHost {
		return simnet.ProbeResponse{Kind: simnet.RespHost, Host: res.Host}
	}
	return simnet.ProbeResponse{Kind: simnet.RespSwitch}
}
