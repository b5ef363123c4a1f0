package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Datacenter-scale fabric generators (ROADMAP item 1: 1k-10k switch
// networks). Three families from the literature:
//
//   - FatTree2: two-layer (leaf/spine) fat-trees after Solnushkin's
//     automated design method (arXiv:1301.6179). Leaves stay radix-8 and
//     carry the hosts; spines are high-radix.
//   - Dragonfly: the canonical group-based dragonfly (complete groups,
//     one global link between every group pair), and SwappedDragonfly,
//     the diameter-3 two-parameter D3(K,M) family of Draper
//     (arXiv:2202.01843), linearly scalable in the group count M.
//   - Butterfly: the k-ary n-fly multistage network, the wormhole-routed
//     MIN family surveyed by Stergiou et al. (arXiv:2007.02550).
//
// Unlike the paper-era generators in gen.go these reach thousands of
// switches, which is exactly what the CSR topology index and the
// radix-aware mapper exist for.

// MaxFabricSwitches bounds the switch count of every generator here and
// in gen.go: a malformed or oversized spec fails before anything is built
// instead of exhausting memory. The bounds checks never overflow.
const MaxFabricSwitches = 1 << 16

// FatTree2Spec configures a two-layer leaf/spine fat-tree.
type FatTree2Spec struct {
	// LeafSwitches is the number of radix-8 leaf (edge) switches.
	LeafSwitches int
	// HostsPerLeaf hosts attach to every leaf (at most SwitchPorts-2:
	// each leaf also carries two spine uplinks).
	HostsPerLeaf int
	// Spines is the spine switch count; 0 picks ~sqrt(2*LeafSwitches),
	// which balances spine radix against path diversity.
	Spines int
}

// FatTree2 builds a two-layer fat-tree: every leaf carries its hosts plus
// two uplinks to a distinct pair of spines, cycling through all spine
// pairs so that any two spines share at least one leaf once
// LeafSwitches >= Spines-1. Spines take exactly the radix they need. The
// diameter is small and independent of scale (host to host in at most six
// wires once every spine pair is covered), which keeps million-probe maps
// tractable.
func FatTree2(spec FatTree2Spec, rng *rand.Rand) (*Network, error) {
	l := spec.LeafSwitches
	if l < 1 {
		return nil, fmt.Errorf("topology: FatTree2 needs at least one leaf switch")
	}
	if spec.HostsPerLeaf < 1 || spec.HostsPerLeaf > SwitchPorts-2 {
		return nil, fmt.Errorf("topology: FatTree2: between 1 and %d hosts per leaf", SwitchPorts-2)
	}
	s := spec.Spines
	if s == 0 {
		s = int(math.Ceil(math.Sqrt(float64(2 * l))))
		if s < 2 {
			s = 2
		}
		if s > l+1 {
			s = l + 1
		}
	}
	if s < 2 || s > MaxSwitchRadix {
		return nil, fmt.Errorf("topology: FatTree2: spine count %d outside [2, %d]", s, MaxSwitchRadix)
	}
	if l < s-1 {
		return nil, fmt.Errorf("topology: FatTree2: %d leaves cannot reach all %d spines", l, s)
	}
	if l > MaxFabricSwitches-s {
		return nil, fmt.Errorf("topology: FatTree2: %d switches exceeds the %d cap", l+s, MaxFabricSwitches)
	}
	// Assign each leaf a spine pair, cycling through all pairs in
	// lexicographic order; tally spine degrees first so every spine is
	// built with exactly the radix it needs.
	pairs := make([][2]int, 0, s*(s-1)/2)
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	deg := make([]int, s)
	pairOf := make([][2]int, l)
	for i := 0; i < l; i++ {
		p := pairs[i%len(pairs)]
		pairOf[i] = p
		deg[p[0]]++
		deg[p[1]]++
	}
	for i, d := range deg {
		if d > MaxSwitchRadix {
			return nil, fmt.Errorf("topology: FatTree2: spine %d needs radix %d > %d; add spines", i, d, MaxSwitchRadix)
		}
	}
	// Every count is known here: size the tables and build the names in
	// creation order, once.
	hosts := l * spec.HostsPerLeaf
	n := &Network{}
	n.Grow(s+l+hosts, 2*l+l*SwitchPorts+hosts, hosts+2*l)
	names := nameBatch{buf: make([]byte, 0, 8*(s+l+hosts)), ends: make([]int32, 0, s+l+hosts)}
	for i := range s {
		names.add("S", i)
	}
	for i := range l {
		names.add("L", i)
		for h := range spec.HostsPerLeaf {
			names.add("Node", i*spec.HostsPerLeaf+h)
		}
	}
	names.seal()
	spines := make([]NodeID, s)
	for i := range spines {
		spines[i] = n.AddSwitchRadix(names.next(), deg[i])
	}
	for i := 0; i < l; i++ {
		leaf := n.AddSwitch(names.next())
		for h := 0; h < spec.HostsPerLeaf; h++ {
			host := n.AddHost(names.next())
			must(connectRandomPorts(n, host, leaf, rng))
		}
		must(connectRandomPorts(n, leaf, spines[pairOf[i][0]], rng))
		must(connectRandomPorts(n, leaf, spines[pairOf[i][1]], rng))
	}
	return n, nil
}

// MustFatTree2 is FatTree2 that panics on error.
func MustFatTree2(spec FatTree2Spec, rng *rand.Rand) *Network {
	return mustNet(FatTree2(spec, rng))
}

// Dragonfly builds the canonical maximal dragonfly: groups of groupSize
// switches in a complete graph, hostsPer hosts and globalLinks global
// ports per switch, and groupSize*globalLinks+1 groups so that every pair
// of groups is joined by exactly one global link. Switch radix is
// hostsPer + (groupSize-1) + globalLinks.
func Dragonfly(groupSize, hostsPer, globalLinks int, rng *rand.Rand) (*Network, error) {
	a, p, h := groupSize, hostsPer, globalLinks
	if a < 1 || h < 1 || p < 1 {
		return nil, fmt.Errorf("topology: Dragonfly needs positive group size, hosts and global links")
	}
	radix := p + (a - 1) + h
	if max(a, p, h) > MaxSwitchRadix || radix > MaxSwitchRadix {
		return nil, fmt.Errorf("topology: Dragonfly: radix %d exceeds %d", radix, MaxSwitchRadix)
	}
	g := a*h + 1
	if a*g > MaxFabricSwitches {
		return nil, fmt.Errorf("topology: Dragonfly: %d switches exceeds the %d cap", a*g, MaxFabricSwitches)
	}
	n := &Network{}
	nm := namer{prefix: "Node"}
	sw := make([][]NodeID, g)
	for i := 0; i < g; i++ {
		sw[i] = make([]NodeID, a)
		for j := 0; j < a; j++ {
			sw[i][j] = n.AddSwitchRadix(fmt.Sprintf("G%dS%d", i, j), radix)
			for k := 0; k < p; k++ {
				host := n.AddHost(nm.next())
				must(connectRandomPorts(n, host, sw[i][j], rng))
			}
		}
		for j := 0; j < a; j++ {
			for k := j + 1; k < a; k++ {
				must(connectRandomPorts(n, sw[i][j], sw[i][k], rng))
			}
		}
	}
	// Global endpoint e of group i (e in 0..a*h-1, owned by switch e/h)
	// reaches group (i+e+1) mod g; the arrangement is an involution, so
	// connect each pair once from the lower-numbered group.
	for i := 0; i < g; i++ {
		for e := 0; e < a*h; e++ {
			t := (i + e + 1) % g
			if i >= t {
				continue
			}
			back := (i - t - 1 + g) % g
			must(connectRandomPorts(n, sw[i][e/h], sw[t][back/h], rng))
		}
	}
	return n, nil
}

// MustDragonfly is Dragonfly that panics on error.
func MustDragonfly(groupSize, hostsPer, globalLinks int, rng *rand.Rand) *Network {
	return mustNet(Dragonfly(groupSize, hostsPer, globalLinks, rng))
}

// SwappedDragonfly builds Draper's diameter-3 swapped dragonfly D3(K,M):
// M complete groups of K switches where switch s of group g is joined to
// switch g of group s by a transpose ("swap") link. Any two switches are
// within three wires (intra, swap, intra). M may grow from 1 to K without
// rewiring existing groups, which is the family's linear-scalability
// point. Switch radix is K + hostsPer.
func SwappedDragonfly(k, m, hostsPer int, rng *rand.Rand) (*Network, error) {
	if k < 2 || m < 1 || m > k {
		return nil, fmt.Errorf("topology: SwappedDragonfly needs 2 <= K and 1 <= M <= K")
	}
	if hostsPer < 1 {
		return nil, fmt.Errorf("topology: SwappedDragonfly needs at least one host per switch")
	}
	radix := k + hostsPer // K-1 intra + 1 swap + hosts
	if max(k, hostsPer) > MaxSwitchRadix || radix > MaxSwitchRadix {
		return nil, fmt.Errorf("topology: SwappedDragonfly: radix %d exceeds %d", radix, MaxSwitchRadix)
	}
	if k*m > MaxFabricSwitches {
		return nil, fmt.Errorf("topology: SwappedDragonfly: %d switches exceeds the %d cap", k*m, MaxFabricSwitches)
	}
	n := &Network{}
	nm := namer{prefix: "Node"}
	sw := make([][]NodeID, m)
	for g := 0; g < m; g++ {
		sw[g] = make([]NodeID, k)
		for s := 0; s < k; s++ {
			sw[g][s] = n.AddSwitchRadix(fmt.Sprintf("G%dS%d", g, s), radix)
			for i := 0; i < hostsPer; i++ {
				host := n.AddHost(nm.next())
				must(connectRandomPorts(n, host, sw[g][s], rng))
			}
		}
		for s := 0; s < k; s++ {
			for t := s + 1; t < k; t++ {
				must(connectRandomPorts(n, sw[g][s], sw[g][t], rng))
			}
		}
	}
	for g := 0; g < m; g++ {
		for s := g + 1; s < m; s++ {
			must(connectRandomPorts(n, sw[g][s], sw[s][g], rng))
		}
	}
	return n, nil
}

// MustSwappedDragonfly is SwappedDragonfly that panics on error.
func MustSwappedDragonfly(k, m, hostsPer int, rng *rand.Rand) *Network {
	return mustNet(SwappedDragonfly(k, m, hostsPer, rng))
}

// Butterfly builds a k-ary n-fly: n stages of k^(n-1) radix-2k switches.
// Between stages s and s+1 the links realise the butterfly permutation on
// digit n-2-s of the switch index; k hosts attach to every first-stage and
// every last-stage switch (the MIN's input and output terminals).
func Butterfly(k, stages int, rng *rand.Rand) (*Network, error) {
	if k < 2 || stages < 2 {
		return nil, fmt.Errorf("topology: Butterfly needs arity >= 2 and >= 2 stages")
	}
	if k > MaxSwitchRadix/2 {
		return nil, fmt.Errorf("topology: Butterfly: radix %d exceeds %d", 2*k, MaxSwitchRadix)
	}
	width := 1
	for i := 1; i < stages; i++ {
		if width > MaxFabricSwitches/k/stages {
			return nil, fmt.Errorf("topology: Butterfly: %d-ary %d-fly exceeds the %d-switch cap", k, stages, MaxFabricSwitches)
		}
		width *= k
	}
	if width*stages > MaxFabricSwitches {
		return nil, fmt.Errorf("topology: Butterfly: %d switches exceeds the %d cap", width*stages, MaxFabricSwitches)
	}
	n := &Network{}
	nm := namer{prefix: "Node"}
	sw := make([][]NodeID, stages)
	for s := 0; s < stages; s++ {
		sw[s] = make([]NodeID, width)
		for j := 0; j < width; j++ {
			sw[s][j] = n.AddSwitchRadix(fmt.Sprintf("B%d-%d", s, j), 2*k)
		}
	}
	for j := 0; j < width; j++ {
		for i := 0; i < k; i++ {
			host := n.AddHost(nm.next())
			must(connectRandomPorts(n, host, sw[0][j], rng))
		}
	}
	stride := width / k // digit n-2 is the most significant of n-1 digits
	for s := 0; s+1 < stages; s++ {
		for j := 0; j < width; j++ {
			c := (j / stride) % k
			for d := 0; d < k; d++ {
				must(connectRandomPorts(n, sw[s][j], sw[s+1][j+(d-c)*stride], rng))
			}
		}
		stride /= k
	}
	for j := 0; j < width; j++ {
		for i := 0; i < k; i++ {
			host := n.AddHost(nm.next())
			must(connectRandomPorts(n, host, sw[stages-1][j], rng))
		}
	}
	return n, nil
}

// MustButterfly is Butterfly that panics on error.
func MustButterfly(k, stages int, rng *rand.Rand) *Network {
	return mustNet(Butterfly(k, stages, rng))
}
