// Package genspec parses the compact topology-generator specifications the
// command-line tools share, e.g. "now-cab", "fattree:6x4", "fattree2:64x4",
// "dragonfly:8,4,4", "random:8,20,4", "mesh:3x4".
//
// The generators are one name-sorted table: a specification "name:arg"
// picks the row called name, arg must hold as many positive numbers
// (separated by ',' or 'x') as the row takes, and the row builds the
// network from them. Build reports the known names when the lookup fails;
// Specs and List render the table for flag usage and `sangen -list`.
package genspec

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"sanmap/internal/cluster"
	"sanmap/internal/topology"
)

// Result is a parsed and built specification.
type Result struct {
	Net *topology.Network
	// Utility is the name of the distinguished service host for the NOW
	// configurations, "" otherwise.
	Utility string
}

// generator is one row of the table: a family of networks built from
// between min and max numbers. usage is the argument form, e.g.
// "mesh:WxH", and starts with the family's name.
type generator struct {
	usage, desc string
	min, max    int
	build       func(v []int, rng *rand.Rand) (Result, error)
}

// name is the family's name, the part of usage before the colon.
func (g *generator) name() string {
	name, _, _ := strings.Cut(g.usage, ":")
	return name
}

// network wraps a topology constructor's result for a table row.
func network(net *topology.Network, err error) (Result, error) {
	return Result{Net: net}, err
}

// now builds a row for one of the NOW configurations, which take no
// argument and carry a utility host.
func now(sys func(*rand.Rand) *cluster.System) func([]int, *rand.Rand) (Result, error) {
	return func(_ []int, rng *rand.Rand) (Result, error) {
		s := sys(rng)
		return Result{Net: s.Net, Utility: s.Net.NameOf(s.Utility)}, nil
	}
}

// table holds every generator, sorted by name. rng randomises port
// embeddings (nil keeps them deterministic).
var table = []generator{
	{usage: "butterfly:KxN", min: 2, max: 2,
		desc: "k-ary n-fly multistage network: N stages of K^(N-1) radix-2K switches",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			return network(topology.Butterfly(v[0], v[1], rng))
		}},
	{usage: "d3:K,M[,P]", min: 2, max: 3,
		desc: "swapped dragonfly D3(K,M) (Draper): M complete K-switch groups with transpose links, P hosts per switch (default 2)",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			hosts := 2
			if len(v) == 3 {
				hosts = v[2]
			}
			return network(topology.SwappedDragonfly(v[0], v[1], hosts, rng))
		}},
	{usage: "dragonfly:A,P,H", min: 3, max: 3,
		desc: "maximal dragonfly: A*H+1 complete groups of A switches, P hosts and H global links each",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			return network(topology.Dragonfly(v[0], v[1], v[2], rng))
		}},
	{usage: "fattree:LxH", min: 2, max: 2,
		desc: "NOW-style incomplete fat tree: L leaves with H hosts each",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			return network(topology.FatTree(topology.FatTreeSpec{
				LeafSwitches: v[0], HostsPerLeaf: v[1],
				MidSwitches: (v[0] + 1) / 2, RootSwitches: 1,
				UplinksPerLeaf: 2, UplinksPerMid: 1,
			}, rng))
		}},
	{usage: "fattree2:LxH[,S]", min: 2, max: 3,
		desc: "two-layer leaf/spine fat-tree (Solnushkin), S spines auto-sized when omitted",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			spec := topology.FatTree2Spec{LeafSwitches: v[0], HostsPerLeaf: v[1]}
			if len(v) == 3 {
				spec.Spines = v[2]
			}
			return network(topology.FatTree2(spec, rng))
		}},
	{usage: "hypercube:D", min: 1, max: 1,
		desc: "D-dimensional hypercube of switches, one host each",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			return network(topology.Hypercube(v[0], 1, rng))
		}},
	{usage: "line:N", min: 1, max: 1,
		desc: "N switches in a path, two hosts per switch",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			return network(topology.Line(v[0], 2, rng))
		}},
	{usage: "mesh:WxH", min: 2, max: 2,
		desc: "WxH switch grid, two hosts per switch",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			return network(topology.Mesh(v[0], v[1], 2, rng))
		}},
	{usage: "now-c", desc: "NOW subcluster C (Fig 3)", build: now(cluster.CConfig)},
	{usage: "now-ca", desc: "NOW subclusters C+A (Fig 3)", build: now(cluster.CAConfig)},
	{usage: "now-cab", desc: "full NOW system C+A+B (Fig 3)", build: now(cluster.CABConfig)},
	{usage: "random:S,H,E", min: 3, max: 3,
		desc: "connected random multigraph: S switches, H hosts, E extra links",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			// The switch cap comes first, so the bounds below cannot overflow.
			if v[0] > topology.MaxFabricSwitches {
				return Result{}, fmt.Errorf("genspec: at most %d switches", topology.MaxFabricSwitches)
			}
			if v[1] > 4*v[0] {
				return Result{}, fmt.Errorf("genspec: at most %d hosts for %d switches", 4*v[0], v[0])
			}
			// An extra link takes two of the 8 ports, so more than 4 per
			// switch can never be placed.
			if v[2] > 4*v[0] {
				return Result{}, fmt.Errorf("genspec: at most %d extra links for %d switches", 4*v[0], v[0])
			}
			if rng == nil {
				rng = rand.New(rand.NewSource(1))
			}
			return network(topology.RandomConnected(v[0], v[1], v[2], rng))
		}},
	{usage: "ring:N", min: 1, max: 1,
		desc: "N switches in a cycle, two hosts per switch",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			return network(topology.Ring(v[0], 2, rng))
		}},
	{usage: "star:N", min: 1, max: 1,
		desc: "hub switch with N leaf switches, two hosts per leaf",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			return network(topology.Star(v[0], 2, rng))
		}},
	{usage: "torus:WxH", min: 2, max: 2,
		desc: "WxH switch torus (wraparound mesh), two hosts per switch",
		build: func(v []int, rng *rand.Rand) (Result, error) {
			return network(topology.Torus(v[0], v[1], 2, rng))
		}},
}

// Names returns the generator names in sorted order.
func Names() []string {
	out := make([]string, len(table))
	for i := range table {
		out[i] = table[i].name()
	}
	return out
}

// Specs describes all argument forms, for flag usage strings.
func Specs() string {
	forms := make([]string, len(table))
	for i := range table {
		forms[i] = table[i].usage
	}
	return strings.Join(forms, ", ")
}

// List writes one line per generator, its argument form and description.
func List(w io.Writer) {
	for _, g := range table {
		fmt.Fprintf(w, "%-22s %s\n", g.usage, g.desc)
	}
}

// Build resolves spec ("name" or "name:arg") against the table and
// constructs the network. rng randomises port embeddings (nil keeps them
// deterministic).
func Build(spec string, rng *rand.Rand) (Result, error) {
	name, arg, _ := strings.Cut(spec, ":")
	if strings.Contains(arg, ":") {
		return Result{}, fmt.Errorf("genspec: %q: unexpected ':' in argument %q", spec, arg)
	}
	i, ok := slices.BinarySearchFunc(table, name, func(g generator, name string) int {
		return strings.Compare(g.name(), name)
	})
	if !ok {
		return Result{}, fmt.Errorf("genspec: unknown generator %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	g := &table[i]
	if g.max == 0 && arg != "" {
		return Result{}, fmt.Errorf("genspec: %q takes no argument (got %q)", name, arg)
	}
	v, err := nums(name+":"+arg, arg, g.min, g.max)
	if err != nil {
		return Result{}, err
	}
	return g.build(v, rng)
}

// nums parses between min and max positive integers separated by ',' or
// 'x'.
func nums(spec, arg string, min, max int) ([]int, error) {
	parts := strings.FieldsFunc(arg, func(r rune) bool { return r == ',' || r == 'x' })
	if len(parts) < min || len(parts) > max {
		if min == max {
			return nil, fmt.Errorf("genspec: %q: want %d numbers, have %d", spec, min, len(parts))
		}
		return nil, fmt.Errorf("genspec: %q: want %d to %d numbers, have %d", spec, min, max, len(parts))
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("genspec: %q: %v", spec, err)
		}
		if v < 1 {
			return nil, fmt.Errorf("genspec: %q: numbers must be positive", spec)
		}
		out[i] = v
	}
	return out, nil
}
