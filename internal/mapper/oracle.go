package mapper

import (
	"fmt"
	"sort"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// OracleRun maps a network whose switches are self-identifying — the §6
// hardware extension: "if a probe made it to a switch and back, it would
// carry a unique identifier and the exploration process would be simpler."
// With identities (and the stamped entry port) the model graph is exact on
// first contact: no replicates ever exist, no merge machinery runs, and the
// probe budget collapses to at most two probes per switch port. The
// comparison against the Berkeley algorithm (BenchmarkOracleVsBerkeley)
// quantifies what the anonymous-switch problem costs; the paper's caveat —
// that self-identification alone still does not solve mapping under
// cross-traffic — stands, since the oracle changes nothing about probe
// loss.
//
// Unlike the Berkeley algorithm, the oracle mapper has no prune stage and
// therefore maps hostless switch-bridge regions too (its output is
// isomorphic to all of N, not N−F).
func OracleRun(p simnet.Prober, depth int) (*Map, error) {
	if err := requireCaps(p, simnet.CapHost|simnet.CapID); err != nil {
		return nil, err
	}
	if depth < 1 {
		return nil, fmt.Errorf("mapper: depth must be >= 1, got %d: %w", depth, ErrDepthExceeded)
	}
	start := p.Clock()
	stats := Stats{}
	maxPorts, err := proberRadix(p)
	if err != nil {
		return nil, err
	}

	type oswitch struct {
		id    int
		node  topology.NodeID // id in the output network
		entry int             // absolute entry port of the discovery route
		route simnet.Route
	}
	net := &topology.Network{}
	mapperID := net.AddHost(p.LocalHost())
	hosts := map[string]topology.NodeID{p.LocalHost(): mapperID}
	seen := map[int]*oswitch{}
	type edgeKey struct{ a, pa, b, pb int }
	edges := map[edgeKey]bool{}
	addEdge := func(aID, pa, bID, pb int) {
		k := edgeKey{aID, pa, bID, pb}
		if aID > bID || (aID == bID && pa > pb) {
			k = edgeKey{bID, pb, aID, pa}
		}
		edges[k] = true
	}
	hostEdges := map[string][2]int{} // host name -> (switch oracle id, port)

	// The root switch: the empty prefix parks on the mapper's own switch.
	first := simnet.Do(p, simnet.Probe{Kind: simnet.ProbeID, Route: simnet.Route{}})
	if !first.OK {
		return nil, fmt.Errorf("mapper: oracle cannot reach the first switch")
	}
	root := &oswitch{id: first.SwitchID, node: net.AddSwitchRadix(fmt.Sprintf("o%d", first.SwitchID), maxPorts),
		entry: first.EntryPort, route: simnet.Route{}}
	seen[root.id] = root
	hostEdges[p.LocalHost()] = [2]int{root.id, root.entry}

	frontier := []*oswitch{root}
	for len(frontier) > 0 {
		sw := frontier[0]
		frontier = frontier[1:]
		stats.Explorations++
		if len(sw.route) >= depth {
			continue
		}
		for port := 0; port < maxPorts; port++ {
			if port == sw.entry {
				continue // the wire we came in on is already recorded
			}
			t := simnet.Turn(port - sw.entry)
			probe := sw.route.Extend(t)
			if res := simnet.Do(p, simnet.Probe{Kind: simnet.ProbeHost, Route: probe}); res.OK {
				if _, dup := hosts[res.Host]; !dup {
					hosts[res.Host] = net.AddHost(res.Host)
				}
				hostEdges[res.Host] = [2]int{sw.id, port}
				continue
			}
			res := simnet.Do(p, simnet.Probe{Kind: simnet.ProbeID, Route: probe})
			if !res.OK {
				continue
			}
			id, entry := res.SwitchID, res.EntryPort
			other, known := seen[id]
			if !known {
				other = &oswitch{id: id, node: net.AddSwitchRadix(fmt.Sprintf("o%d", id), maxPorts),
					entry: entry, route: probe}
				seen[id] = other
				frontier = append(frontier, other)
			}
			addEdge(sw.id, port, id, entry)
		}
	}

	// Assemble wires (ports are absolute — the oracle stamps them).
	keys := make([]edgeKey, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.a != b.a {
			return a.a < b.a
		}
		if a.pa != b.pa {
			return a.pa < b.pa
		}
		if a.b != b.b {
			return a.b < b.b
		}
		return a.pb < b.pb
	})
	for _, k := range keys {
		if k.a == k.b && k.pa == k.pb {
			if err := net.AddReflector(seen[k.a].node, k.pa); err != nil {
				return nil, fmt.Errorf("mapper: oracle reflector: %w", err)
			}
			continue
		}
		if _, err := net.Connect(seen[k.a].node, k.pa, seen[k.b].node, k.pb); err != nil {
			return nil, fmt.Errorf("mapper: oracle wire: %w", err)
		}
	}
	hostNames := make([]string, 0, len(hostEdges))
	for name := range hostEdges {
		hostNames = append(hostNames, name)
	}
	sort.Strings(hostNames)
	for _, name := range hostNames {
		he := hostEdges[name]
		if _, err := net.Connect(hosts[name], topology.HostPort, seen[he[0]].node, he[1]); err != nil {
			return nil, fmt.Errorf("mapper: oracle host wire: %w", err)
		}
	}

	stats.Elapsed = p.Clock() - start
	stats.Probes = p.Stats()
	return &Map{Network: net, Mapper: mapperID, Stats: stats}, nil
}
