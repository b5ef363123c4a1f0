// Differential tests for Diameter: the bit-parallel search over the core
// (every node that is not a leaf, leaves read off their neighbours) must
// agree with the searches it replaced — one breadth-first search per node
// that is not a leaf, and one from every node — on every network, including
// the disconnected, isolated-node, two-node, loopback and parallel-wire
// corners the leaf argument treats apart. External package for the same
// reason as csr_equiv_test.go.
package topology_test

import (
	"math/rand"
	"testing"

	"sanmap/internal/genspec"
	"sanmap/internal/topology"
)

// bfsFrom is a plain breadth-first search over the index's adjacency: src's
// eccentricity and the number of nodes it reaches, itself included.
func bfsFrom(ix *topology.Index, src topology.NodeID) (ecc, reached int) {
	dist := make([]int, ix.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []topology.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		ecc, reached = max(ecc, dist[u]), reached+1
		for _, v := range ix.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, topology.NodeID(v))
			}
		}
	}
	return ecc, reached
}

// everyNodeDiameter is the definition: the largest eccentricity over every
// node.
func everyNodeDiameter(ix *topology.Index) int {
	d := 0
	for i := 0; i < ix.NumNodes(); i++ {
		e, _ := bfsFrom(ix, topology.NodeID(i))
		d = max(d, e)
	}
	return d
}

// perSourceDiameter is the replaced Index.Diameter: one search from every
// node that is not a leaf; a leaf's eccentricity is its neighbour's plus
// one when the component holds a third node, and two leaves cabled to each
// other are a component of diameter 1.
func perSourceDiameter(ix *topology.Index) int {
	d := 0
	for i := 0; i < ix.NumNodes(); i++ {
		u := topology.NodeID(i)
		if ix.Degree(u) == 1 {
			if ix.Degree(topology.NodeID(ix.Neighbors(u)[0])) == 1 {
				d = max(d, 1)
			}
			continue
		}
		e, reached := bfsFrom(ix, u)
		for _, v := range ix.Neighbors(u) {
			if ix.Degree(topology.NodeID(v)) == 1 && reached > 2 {
				e++
				break
			}
		}
		d = max(d, e)
	}
	return d
}

// checkDiameter compares Diameter with both oracles and every node's
// Eccentricity with the plain search's.
func checkDiameter(t *testing.T, what string, n *topology.Network) {
	t.Helper()
	ix := n.Index()
	want := everyNodeDiameter(ix)
	if got := n.Diameter(); got != want {
		t.Fatalf("%s: Diameter = %d, every-node oracle %d", what, got, want)
	}
	if old := perSourceDiameter(ix); old != want {
		t.Fatalf("%s: per-source oracle %d, every-node oracle %d", what, old, want)
	}
	for i := 0; i < ix.NumNodes(); i++ {
		want, _ := bfsFrom(ix, topology.NodeID(i))
		if got := ix.Eccentricity(topology.NodeID(i)); got != want {
			t.Fatalf("%s: Eccentricity(%d) = %d, oracle %d", what, i, got, want)
		}
	}
}

func TestDiameterLeafCollapseMatchesEveryNode(t *testing.T) {
	for _, name := range genspec.Names() {
		spec, ok := sampleSpecs[name]
		if !ok {
			t.Fatalf("no sample spec for registered generator %q", name)
		}
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			res, err := genspec.Build(spec, rng)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			n := res.Net
			checkDiameter(t, spec, n)
			// Successive cuts split the fabric and strand hosts and
			// switches, down to isolated nodes and two-node pieces.
			for cut := 0; cut < 12; cut++ {
				wi := rng.Intn(n.NumWireSlots())
				if !n.WireAlive(wi) {
					continue
				}
				if err := n.RemoveWire(wi); err != nil {
					t.Fatal(err)
				}
				checkDiameter(t, spec+" cut", n)
			}
		}
	}

	// Hand-built corners: leaves cabled to each other, a lone leaf pair
	// behind a switch, and loopback cables, which give a switch two
	// adjacency entries that lead back to itself.
	hostPair := &topology.Network{}
	h1, h2 := hostPair.AddHost("h1"), hostPair.AddHost("h2")
	hostPair.MustConnect(h1, topology.HostPort, h2, topology.HostPort)
	checkDiameter(t, "two hosts cabled directly", hostPair)

	oneHost := &topology.Network{}
	s := oneHost.AddSwitch("s")
	oneHost.MustConnect(oneHost.AddHost("h"), topology.HostPort, s, 0)
	checkDiameter(t, "a switch with one host", oneHost)
	oneHost.MustConnect(s, 1, s, 2)
	checkDiameter(t, "a switch with one host and a loopback cable", oneHost)
	oneHost.MustConnect(oneHost.AddHost("h2"), topology.HostPort, s, 3)
	checkDiameter(t, "a switch with two hosts and a loopback cable", oneHost)

	loopOnly := &topology.Network{}
	ls := loopOnly.AddSwitch("s")
	loopOnly.MustConnect(ls, 0, ls, 1)
	loopOnly.AddHost("isolated")
	checkDiameter(t, "a switch with only a loopback cable, and an isolated host", loopOnly)

	checkDiameter(t, "empty network", &topology.Network{})
	for _, spec := range []string{"star:1", "line:1"} {
		res, err := genspec.Build(spec, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		checkDiameter(t, spec, res.Net)
	}

	// More than 64 core nodes: a line of 150 switches, so a source's
	// farthest node lies in another word of sources, with a host at each
	// end and one in the middle.
	line := &topology.Network{}
	prev := line.AddSwitch("s0")
	line.MustConnect(line.AddHost("a"), topology.HostPort, prev, 0)
	for i := 1; i < 150; i++ {
		sw := line.AddSwitch("")
		line.MustConnect(prev, 1, sw, 2)
		if i == 75 {
			line.MustConnect(line.AddHost("m"), topology.HostPort, sw, 0)
		}
		prev = sw
	}
	line.MustConnect(line.AddHost("z"), topology.HostPort, prev, 0)
	checkDiameter(t, "a line of 150 switches", line)

	// The only two ends of the diameter are the last sources of two words:
	// a line of 128 switches from switch 63 to switch 127, each end kept in
	// the core by a loopback cable.
	ends := &topology.Network{}
	for range 128 {
		ends.AddSwitch("")
	}
	order := []topology.NodeID{63}
	for i := topology.NodeID(0); i < 128; i++ {
		if i != 63 {
			order = append(order, i)
		}
	}
	for k := 1; k < len(order); k++ {
		ends.MustConnect(order[k-1], 1, order[k], 2)
	}
	ends.MustConnect(63, 3, 63, 4)
	ends.MustConnect(127, 3, 127, 4)
	checkDiameter(t, "a line whose ends are core nodes 63 and 127", ends)
}

// multigraph decodes a small network from fuzz bytes: data[0] and data[1]
// give up to 11 switches (radix 8) and up to 11 hosts, and each later
// triple (op, x, y) either cuts wire slot y (op%5 == 4, when that wire is
// alive) or cables the lowest free ports of nodes x and y: switch-host,
// host-host, switch-switch (repeats are parallel wires) or a switch to
// itself (a loopback). Cables with no free port are skipped, so nodes may
// stay unwired and the network may split into any number of components.
func multigraph(data []byte) *topology.Network {
	n := &topology.Network{}
	if len(data) < 2 {
		return n
	}
	for range int(data[0]) % 12 {
		n.AddSwitch("")
	}
	for i := range int(data[1]) % 12 {
		n.AddHost(string(rune('a' + i)))
	}
	if n.NumNodes() == 0 {
		return n
	}
	for k := 2; k+2 < len(data); k += 3 {
		op, x, y := data[k], int(data[k+1]), int(data[k+2])
		if op%5 == 4 {
			if slots := n.NumWireSlots(); slots > 0 && n.WireAlive(y%slots) {
				if err := n.RemoveWire(y % slots); err != nil {
					panic(err)
				}
			}
			continue
		}
		n.ConnectFree(topology.NodeID(x%n.NumNodes()), topology.NodeID(y%n.NumNodes())) // no free port: skipped
	}
	return n
}

func FuzzDiameter(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 1})                                     // two hosts cabled directly
	f.Add([]byte{1, 1, 0, 0, 1, 0, 0, 0})                            // a host and a loopback switch
	f.Add([]byte{3, 4, 0, 0, 3, 0, 1, 4, 0, 2, 5, 0, 0, 1, 0, 0, 1}) // a line with parallel wires
	f.Add([]byte{4, 6, 0, 0, 4, 0, 1, 5, 0, 2, 6, 0, 3, 7, 0, 0, 1, 0, 2, 3, 4, 0, 1, 9, 8, 0, 3})
	f.Add([]byte{2, 3, 0, 0, 1, 0, 2, 3, 0, 3, 4, 4, 0, 0, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDiameter(t, "fuzzed multigraph", multigraph(data))
	})
}
