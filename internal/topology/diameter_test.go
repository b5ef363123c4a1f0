// Differential test for Diameter: the leaf collapse (one search per node
// that is not a leaf) must agree with the construction it replaced — one
// search from every node — on every network, including the disconnected,
// isolated-node and two-node corners the collapse argument treats apart.
// External package for the same reason as csr_equiv_test.go.
package topology_test

import (
	"math/rand"
	"testing"

	"sanmap/internal/genspec"
	"sanmap/internal/topology"
)

// oracleDiameter is the replaced Index.Diameter: the largest eccentricity
// over every node.
func oracleDiameter(ix *topology.Index) int {
	d := 0
	for i := 0; i < ix.NumNodes(); i++ {
		d = max(d, ix.Eccentricity(topology.NodeID(i)))
	}
	return d
}

func checkDiameter(t *testing.T, what string, n *topology.Network) {
	t.Helper()
	if got, want := n.Diameter(), oracleDiameter(n.Index()); got != want {
		t.Fatalf("%s: Diameter = %d, every-node oracle %d", what, got, want)
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
}
