package mapper

import (
	"fmt"
	"math/rand"

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

// RandomizedConfig parameterises a hybrid run.
type RandomizedConfig struct {
	Config
	// CouponProbes is the number of maximal-depth random probes (phase 1).
	CouponProbes int
	// MaxTurnMagnitude bounds the random turns drawn; small magnitudes
	// survive longer on densely-populated switches (§3.3's observation).
	MaxTurnMagnitude int
	// Rng drives the random directions; required.
	Rng *rand.Rand
}

// RandomizedRun executes the coupon-collecting hybrid.
func RandomizedRun(p simnet.Prober, cfg RandomizedConfig) (*Map, error) {
	if err := requireCaps(p, simnet.CapHost|simnet.CapSwitch|simnet.CapTolerant); err != nil {
		return nil, err
	}
	if cfg.Rng == nil {
		return nil, fmt.Errorf("mapper: RandomizedConfig.Rng is required")
	}
	r, err := newRun(p, cfg.Config)
	if err != nil {
		return nil, err
	}
	if cfg.MaxTurnMagnitude <= 0 || cfg.MaxTurnMagnitude > r.cfg.MaxPorts-1 {
		cfg.MaxTurnMagnitude = 4
	}
	rootSwitch := r.initialize()

	// Phase 1: coupon collecting. Each successful random probe of maximal
	// depth yields a chain root → ... → host; walk it into the model,
	// reusing vertices where slots are already known and creating fresh
	// ones otherwise. The random routes depend only on the Rng, so they are
	// all drawn up front; with the pipelined engine active the whole batch
	// goes through the window (the chains are walked in submission order,
	// so the model is the same either way).
	routes := make([]simnet.Route, cfg.CouponProbes)
	for i := range routes {
		route := make(simnet.Route, cfg.Depth)
		for j := range route {
			mag := 1 + cfg.Rng.Intn(cfg.MaxTurnMagnitude)
			if cfg.Rng.Intn(2) == 0 {
				mag = -mag
			}
			route[j] = simnet.Turn(mag)
		}
		routes[i] = route
	}
	walk := func(res simnet.ProbeResult) {
		if !res.OK {
			return
		}
		r.walkChain(rootSwitch, res.Probe.Route[:res.Consumed], res.Host)
		r.model.processMerges()
	}
	batch := make([]simnet.Probe, len(routes))
	for i, route := range routes {
		batch[i] = simnet.Probe{Kind: simnet.ProbeTolerant, Route: route}
	}
	if r.win != nil {
		for _, res := range r.win.Do(batch) {
			walk(res)
		}
	} else {
		for _, probe := range batch {
			walk(simnet.Do(p, probe))
		}
	}

	// Phase 2: breadth-first completion over the dangling edges. Behind the
	// root switch (on the frontier since INITIALIZATION) every live switch
	// vertex becomes a frontier job carrying the route and entry index
	// recorded at its creation; the standard explorer skips occupied slots,
	// so only genuinely unknown ports cost probes.
	for _, v := range r.model.liveVertices() {
		if v.kind != topology.SwitchNode || v == rootSwitch {
			continue
		}
		root, _ := find(v)
		if root != v {
			continue
		}
		// Chain vertices are always created with their entry port at frame
		// index 0, like BFS vertices, so no extra entry offset is needed.
		r.front = append(r.front, job{v: v, route: v.probe})
	}
	if err := r.runLoop(); err != nil {
		return nil, err
	}
	return r.finish()
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
		if es := cur.slots[idx]; len(es) > 0 {
			for _, e := range es {
				if e.deleted {
					continue
				}
				far, fidx := e.otherSide(cur, idx)
				next, nextEntry = far, fidx
				break
			}
		}
		if next == nil {
			prefix := route[:i+1].Clone()
			if last {
				hv, _ := r.model.hostVertex(host, prefix)
				r.model.addEdge(cur, idx, hv, 0)
				return
			}
			w := r.model.newVertex(topology.SwitchNode, "", prefix)
			r.model.addEdge(cur, idx, w, 0)
			next, nextEntry = w, 0
		} else if last {
			// The slot is known; nothing new to learn from this chain end,
			// but assert consistency: a host must live there.
			if next.kind != topology.HostNode {
				// The chain ends at a host the model thinks is a switch:
				// record the host edge and let the merge machinery object.
				hv, _ := r.model.hostVertex(host, route[:i+1].Clone())
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
