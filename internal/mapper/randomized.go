package mapper

import (
	"errors"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Randomized hybrid mapping (§6): "Vazirani has suggested a
// coupon-collecting initial phase to find most of the graph. Probes of
// maximal depth are sent out in random directions ... the whole length of
// the path is effectively explored with one probe. The dangling edges of
// the resulting graph can then be explored in a breadth-first way."
//
// The coupon phase assumes the §6 firmware change: a host receiving a
// message with leftover routing flits reads it and responds
// (simnet.ProbeTolerant), telling the mapper how much of the random route
// the network accepted. Every such response contributes a whole chain of
// switch vertices ending in a host anchor — dense merge fodder — after
// which the ordinary BFS (phase 2) only has to fill in the gaps, skipping
// every slot the chains already occupy.
//
// The hybrid is a Session option, not a second run: WithCoupons makes
// NewSession check the transport and the rng, and the session's first Map
// runs the coupon phase before it drains the frontier. Run, Remap and
// Result.Exact apply unchanged; Checkpoint refuses a coupon session.

// couponTurnMagnitude bounds the random turns drawn; small magnitudes
// survive longer on densely-populated switches (§3.3's observation). It is
// 4 on every radix, radix 4 included.
const couponTurnMagnitude = 4

// couponCheck refuses a coupon session the transport or the options cannot
// run: the phase needs tolerant hosts and a source of random directions.
func couponCheck(p simnet.Prober, cfg Config) error {
	if cfg.Coupons <= 0 {
		return nil
	}
	if err := requireCaps(p, simnet.CapHost|simnet.CapSwitch|simnet.CapTolerant); err != nil {
		return err
	}
	if cfg.CouponRng == nil {
		return errors.New("mapper: WithCoupons needs a non-nil rng")
	}
	return nil
}

// coupons runs the hybrid's first phase from the root switch and leaves
// every chain vertex on the frontier for the ordinary drain.
func (r *run) coupons(rootSwitch *Vertex) {
	// Phase 1: coupon collecting. Each successful random probe of maximal
	// depth yields a chain root → ... → host; walk it into the model,
	// reusing vertices where slots are already known and creating fresh
	// ones otherwise. The random routes depend only on the rng, so they are
	// all drawn up front; with the pipelined engine active the whole batch
	// goes through the window (the chains are walked in submission order,
	// so the model is the same either way).
	rng := r.cfg.CouponRng
	batch := make([]simnet.Probe, r.cfg.Coupons)
	for i := range batch {
		route := make(simnet.Route, r.cfg.Depth)
		for j := range route {
			mag := 1 + rng.Intn(couponTurnMagnitude)
			if rng.Intn(2) == 0 {
				mag = -mag
			}
			route[j] = simnet.Turn(mag)
		}
		batch[i] = simnet.Probe{Kind: simnet.ProbeTolerant, Route: route}
	}
	walk := func(res simnet.ProbeResult) {
		if !res.OK {
			return
		}
		r.walkChain(rootSwitch, res.Probe.Route[:res.Consumed], res.Host)
		r.model.processMerges()
	}
	if r.win != nil {
		for _, res := range r.win.Do(batch) {
			walk(res)
		}
	} else {
		for _, probe := range batch {
			walk(simnet.Do(r.p, probe))
		}
	}

	// Phase 2 is the ordinary frontier drain over the dangling edges. Behind
	// the root switch (on the frontier since INITIALIZATION) every live
	// switch vertex becomes a frontier job carrying the route and entry
	// index recorded at its creation; the standard explorer skips occupied
	// slots, so only genuinely unknown ports cost probes.
	for _, v := range r.model.liveVertices() {
		if v.kind != topology.SwitchNode || v == rootSwitch {
			continue // live vertices are merge roots: a merged one is deleted
		}
		// Chain vertices are always created with their entry port at frame
		// index 0, like BFS vertices, so no extra entry offset is needed.
		r.front = append(r.front, job{v: v, route: v.probe})
	}
}

// walkChain threads one successful probe prefix through the model: the
// probe consumed the turns in route and terminated at host. Known slots are
// followed (same port ⇒ same actual cable), unknown ones create fresh
// vertices; the final hop anchors the chain at the host's canonical vertex.
func (r *run) walkChain(rootSwitch *Vertex, route simnet.Route, host string) {
	cur, shift := find(rootSwitch)
	entry := shift // frame index of the current vertex's entry port
	for i, t := range route {
		idx := entry + int(t)
		last := i == len(route)-1
		// Follow an existing edge when the slot is already known.
		var next *Vertex
		var nextEntry int
		for e := range cur.at(idx) {
			if !e.deleted {
				next, nextEntry = e.otherSide(cur, idx)
				break
			}
		}
		if next == nil {
			prefix := route[:i+1]
			if last {
				hv, _ := r.model.hostVertex(host, prefix)
				r.model.addEdge(cur, idx, hv, 0)
				return
			}
			w := r.model.newVertex(topology.SwitchNode, "", r.model.keepRoute(prefix))
			r.model.addEdge(cur, idx, w, 0)
			next, nextEntry = w, 0
		} else if last {
			// The slot is known; nothing new to learn from this chain end,
			// but assert consistency: a host must live there.
			if next.kind != topology.HostNode {
				// The chain ends at a host the model thinks is a switch:
				// record the host edge and let the merge machinery object.
				hv, _ := r.model.hostVertex(host, route[:i+1])
				r.model.addEdge(cur, idx, hv, 0)
			}
			return
		}
		if next.kind == topology.HostNode {
			// A mid-chain hop into a host vertex contradicts the probe
			// having been forwarded there; possible only under noise. Stop
			// threading this chain.
			return
		}
		rn, sn := find(next)
		cur, entry = rn, nextEntry+sn
	}
}
