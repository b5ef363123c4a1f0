package mapper

import (
	"fmt"

	"sanmap/internal/topology"
)

// Parallel mapping (§6): "It is plausible that every network host could map
// local regions, and upon discovering another host exchange their partial
// maps. The central question is how to merge such local views into a
// stable, globally-consistent one."
//
// MergeMaps answers that question with the same deductive machinery the
// single mapper uses: each partial map's switches become fresh model
// vertices (their concrete ports are just another relative frame), hosts
// are shared by unique name, and the mergelist propagation of §3.3
// identifies every switch the partial maps have in common — anchored at
// shared hosts, cascading through port conflicts. The merged model is then
// pruned and exported like any other.

// MergeMaps merges partial maps into one global view. The first map's
// mapper host names the merged map's vantage point. Partial maps must
// jointly cover the network and overlap enough for the anchoring deductions
// to identify shared switches; disjoint or barely-overlapping views yield a
// merged-but-still-partial result (never a wrong one, absent probe noise).
func MergeMaps(partials ...*Map) (*Map, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("mapper: MergeMaps needs at least one map")
	}
	model := newModel()
	for _, pm := range partials {
		if pm == nil || pm.Network == nil {
			return nil, fmt.Errorf("mapper: MergeMaps given a nil map")
		}
		// Plan for the largest radix any partial observed, so the merged
		// feasible windows do not truncate large-radix fabrics.
		if mp := pm.Network.MaxPorts(); mp > model.maxPorts {
			model.maxPorts = mp
		}
		importNetwork(model, pm.Network)
		model.processMerges()
	}
	vantage := partials[0].Network.NameOf(partials[0].Mapper)
	model.prune(vantage)

	net, mapperID, suspects, _, err := export(model, vantage)
	if err != nil {
		return nil, err
	}
	out := &Map{Network: net, Mapper: mapperID}
	out.Stats.Merges = model.nextID - model.liveVerts
	out.Stats.Inconsistent = model.Inconsistencies
	for _, pm := range partials {
		out.Stats.Probes.HostProbes += pm.Stats.Probes.HostProbes
		out.Stats.Probes.HostHits += pm.Stats.Probes.HostHits
		out.Stats.Probes.SwitchProbes += pm.Stats.Probes.SwitchProbes
		out.Stats.Probes.SwitchHits += pm.Stats.Probes.SwitchHits
		if pm.Stats.Elapsed > out.Stats.Elapsed {
			// Partial maps were produced concurrently; the merged map is
			// ready when the slowest mapper finishes.
			out.Stats.Elapsed = pm.Stats.Elapsed
		}
	}
	return (&Result{Map: out, Suspect: suspects}).Exact()
}

// importNetwork loads a concrete network into the model as vertices and
// edges. Switch ports become frame indices verbatim; hosts resolve through
// the shared name table, which is where cross-map identification begins.
func importNetwork(model *Model, net *topology.Network) {
	local := make(map[topology.NodeID]*Vertex, net.NumNodes())
	// vertexFor returns the current root of the node's vertex and the shift
	// translating the node's port numbers into that root's frame (the
	// original vertex may have merged away during earlier deductions).
	vertexFor := func(id topology.NodeID) (*Vertex, int) {
		v, ok := local[id]
		if !ok {
			if net.KindOf(id) == topology.HostNode {
				v, _ = model.hostVertex(net.NameOf(id), nil)
			} else {
				v = model.newVertex(topology.SwitchNode, "", nil)
			}
			local[id] = v
		}
		return find(v)
	}
	net.WiresIndexed(func(_ int, w topology.Wire) {
		a, sa := vertexFor(w.A.Node)
		b, sb := vertexFor(w.B.Node)
		ai, bi := w.A.Port+sa, w.B.Port+sb
		if net.KindOf(w.A.Node) == topology.HostNode {
			ai = 0
		}
		if net.KindOf(w.B.Node) == topology.HostNode {
			bi = 0
		}
		model.addEdge(a, ai, b, bi)
		// Deductions may merge vertices mid-import; drain eagerly so the
		// next vertexFor resolves against up-to-date roots.
		model.processMerges()
	})
}
