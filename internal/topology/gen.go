package topology

import (
	"fmt"
	"math/rand"
	"strconv"
)

// Generators for the network families the paper discusses: fat-tree-like
// NOW clusters (§5.1), classic MPP interconnects that SANs generalise away
// from (§1: hypercubes, meshes, ...), and arbitrary random graphs, which is
// the regime the mapping algorithm is actually designed for ("their
// topologies ... may be arbitrary graphs that change over time").
//
// All generators validate their parameters and return an error for
// infeasible requests; the Must* wrappers panic instead, for tests and
// examples where the caller controls the arguments. All generated networks
// satisfy Validate. Host names follow the paper's figures: "Node0",
// "Node1", ... When a generator takes an *rand.Rand it uses random free
// ports so that consumers (above all the mapper, with its relative,
// non-modular port addressing) never get to rely on tidy port numbering.
//
// The datacenter-scale families (two-layer fat-trees, dragonflies,
// multistage networks) live in fabric.go.

// namer hands out sequential host names.
type namer struct {
	prefix string
	n      int
}

func (nm *namer) next() string {
	s := fmt.Sprintf("%s%d", nm.prefix, nm.n)
	nm.n++
	return s
}

// nameBatch builds a generator's node names in one buffer and turns them
// into strings with one conversion: add every name in the order the nodes
// are built, seal, then take them back in that order with next.
type nameBatch struct {
	buf  []byte
	ends []int32 // name k is all[start:ends[k]], start being the end of name k-1
	all  string
	read int
	from int32
}

// add appends the name prefix followed by i in decimal.
func (b *nameBatch) add(prefix string, i int) {
	b.buf = strconv.AppendInt(append(b.buf, prefix...), int64(i), 10)
	b.ends = append(b.ends, int32(len(b.buf)))
}

// seal converts the batch to the one string every name slices.
func (b *nameBatch) seal() { b.all = string(b.buf) }

// next returns the next name in the order they were added.
func (b *nameBatch) next() string {
	lo, hi := b.from, b.ends[b.read]
	b.from, b.read = hi, b.read+1
	return b.all[lo:hi]
}

// randomFreePort picks a uniformly random free port of id, or -1: the k-th
// free port in port order, k drawn from the free-port count.
func randomFreePort(n *Network, id NodeID, rng *rand.Rand) int {
	free := 0
	for _, w := range n.portsOf(id) {
		if w < 0 {
			free++
		}
	}
	if free == 0 {
		return -1
	}
	k := 0
	if rng != nil {
		k = rng.Intn(free)
	}
	for p, w := range n.portsOf(id) {
		if w < 0 {
			if k == 0 {
				return p
			}
			k--
		}
	}
	panic("unreachable")
}

// connectRandomPorts cables a and b on random free ports.
func connectRandomPorts(n *Network, a, b NodeID, rng *rand.Rand) error {
	ap := randomFreePort(n, a, rng)
	if ap < 0 {
		return fmt.Errorf("topology: node %d full", a)
	}
	bp := randomFreePort(n, b, rng)
	for b == a && bp == ap {
		bp = randomFreePort(n, b, rng)
	}
	if bp < 0 {
		return fmt.Errorf("topology: node %d full", b)
	}
	_, err := n.Connect(a, ap, b, bp)
	return err
}

// Line returns switches in a path, each with hostsPer hosts attached.
func Line(switches, hostsPer int, rng *rand.Rand) (*Network, error) {
	if switches < 1 || switches > MaxFabricSwitches {
		return nil, fmt.Errorf("topology: Line: between 1 and %d switches", MaxFabricSwitches)
	}
	if hostsPer < 0 || hostsPer > SwitchPorts-2 {
		return nil, fmt.Errorf("topology: Line: at most %d hosts per switch", SwitchPorts-2)
	}
	n := &Network{}
	nm := namer{prefix: "Node"}
	var prev NodeID = None
	for i := 0; i < switches; i++ {
		s := n.AddSwitch(fmt.Sprintf("S%d", i))
		if prev != None {
			must(connectRandomPorts(n, prev, s, rng))
		}
		for h := 0; h < hostsPer; h++ {
			host := n.AddHost(nm.next())
			must(connectRandomPorts(n, host, s, rng))
		}
		prev = s
	}
	return n, nil
}

// MustLine is Line that panics on error.
func MustLine(switches, hostsPer int, rng *rand.Rand) *Network {
	return mustNet(Line(switches, hostsPer, rng))
}

// Ring returns switches in a cycle, each with hostsPer hosts.
func Ring(switches, hostsPer int, rng *rand.Rand) (*Network, error) {
	if switches < 3 {
		return nil, fmt.Errorf("topology: Ring needs at least 3 switches")
	}
	n, err := Line(switches, hostsPer, rng)
	if err != nil {
		return nil, err
	}
	first, last := NodeID(0), None
	for _, s := range n.Switches() {
		last = s
	}
	must(connectRandomPorts(n, last, first, rng))
	return n, nil
}

// MustRing is Ring that panics on error.
func MustRing(switches, hostsPer int, rng *rand.Rand) *Network {
	return mustNet(Ring(switches, hostsPer, rng))
}

// Star returns one hub switch cabled to leaf switches, each leaf carrying
// hostsPer hosts. leaves must be at most 8.
func Star(leaves, hostsPer int, rng *rand.Rand) (*Network, error) {
	if leaves < 1 || leaves > SwitchPorts {
		return nil, fmt.Errorf("topology: Star: between 1 and %d leaves", SwitchPorts)
	}
	if hostsPer < 0 || hostsPer > SwitchPorts-1 {
		return nil, fmt.Errorf("topology: Star: at most %d hosts per leaf", SwitchPorts-1)
	}
	n := &Network{}
	nm := namer{prefix: "Node"}
	hub := n.AddSwitch("Hub")
	for i := 0; i < leaves; i++ {
		leaf := n.AddSwitch(fmt.Sprintf("L%d", i))
		must(connectRandomPorts(n, hub, leaf, rng))
		for h := 0; h < hostsPer; h++ {
			host := n.AddHost(nm.next())
			must(connectRandomPorts(n, host, leaf, rng))
		}
	}
	return n, nil
}

// MustStar is Star that panics on error.
func MustStar(leaves, hostsPer int, rng *rand.Rand) *Network {
	return mustNet(Star(leaves, hostsPer, rng))
}

// Mesh returns a w×h grid of switches with hostsPer hosts each.
// Interior switches use 4 ports for the grid; hostsPer must fit alongside.
func Mesh(w, h, hostsPer int, rng *rand.Rand) (*Network, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("topology: Mesh needs positive dimensions")
	}
	if w > MaxFabricSwitches/h {
		return nil, fmt.Errorf("topology: Mesh: %dx%d exceeds the %d-switch cap", w, h, MaxFabricSwitches)
	}
	if hostsPer < 0 || hostsPer > SwitchPorts-4 {
		return nil, fmt.Errorf("topology: Mesh: at most %d hosts per switch", SwitchPorts-4)
	}
	n := &Network{}
	nm := namer{prefix: "Node"}
	grid := make([][]NodeID, h)
	for y := 0; y < h; y++ {
		grid[y] = make([]NodeID, w)
		for x := 0; x < w; x++ {
			s := n.AddSwitch(fmt.Sprintf("S%d-%d", x, y))
			grid[y][x] = s
			if x > 0 {
				must(connectRandomPorts(n, grid[y][x-1], s, rng))
			}
			if y > 0 {
				must(connectRandomPorts(n, grid[y-1][x], s, rng))
			}
			for k := 0; k < hostsPer; k++ {
				host := n.AddHost(nm.next())
				must(connectRandomPorts(n, host, s, rng))
			}
		}
	}
	return n, nil
}

// MustMesh is Mesh that panics on error.
func MustMesh(w, h, hostsPer int, rng *rand.Rand) *Network {
	return mustNet(Mesh(w, h, hostsPer, rng))
}

// Torus is Mesh with wraparound links; needs w,h ≥ 3 to avoid parallel
// wrap edges colliding with grid edges on tiny sizes.
func Torus(w, h, hostsPer int, rng *rand.Rand) (*Network, error) {
	if w < 3 || h < 3 {
		return nil, fmt.Errorf("topology: Torus needs w,h >= 3")
	}
	if hostsPer < 0 || hostsPer > SwitchPorts-4 {
		return nil, fmt.Errorf("topology: Torus: at most %d hosts per switch", SwitchPorts-4)
	}
	n, err := Mesh(w, h, hostsPer, rng)
	if err != nil {
		return nil, err
	}
	// Switch ids in Mesh are interleaved with host ids; look up by name.
	at := func(x, y int) NodeID { return n.Lookup(fmt.Sprintf("S%d-%d", x, y)) }
	for y := 0; y < h; y++ {
		must(connectRandomPorts(n, at(w-1, y), at(0, y), rng))
	}
	for x := 0; x < w; x++ {
		must(connectRandomPorts(n, at(x, h-1), at(x, 0), rng))
	}
	return n, nil
}

// MustTorus is Torus that panics on error.
func MustTorus(w, h, hostsPer int, rng *rand.Rand) *Network {
	return mustNet(Torus(w, h, hostsPer, rng))
}

// Hypercube returns a dim-dimensional hypercube of switches (dim ≤ 7) with
// hostsPer hosts on each switch (dim+hostsPer ≤ 8).
func Hypercube(dim, hostsPer int, rng *rand.Rand) (*Network, error) {
	if dim < 1 {
		return nil, fmt.Errorf("topology: Hypercube needs dimension >= 1")
	}
	if hostsPer < 0 || dim+hostsPer > SwitchPorts {
		return nil, fmt.Errorf("topology: Hypercube: dim+hostsPer exceeds %d ports", SwitchPorts)
	}
	n := &Network{}
	nm := namer{prefix: "Node"}
	size := 1 << dim
	sw := make([]NodeID, size)
	for i := 0; i < size; i++ {
		sw[i] = n.AddSwitch(fmt.Sprintf("S%0*b", dim, i))
	}
	for i := 0; i < size; i++ {
		for b := 0; b < dim; b++ {
			j := i ^ (1 << b)
			if j > i {
				must(connectRandomPorts(n, sw[i], sw[j], rng))
			}
		}
		for k := 0; k < hostsPer; k++ {
			host := n.AddHost(nm.next())
			must(connectRandomPorts(n, host, sw[i], rng))
		}
	}
	return n, nil
}

// MustHypercube is Hypercube that panics on error.
func MustHypercube(dim, hostsPer int, rng *rand.Rand) *Network {
	return mustNet(Hypercube(dim, hostsPer, rng))
}

// FatTreeSpec configures an incomplete fat tree in the style of the NOW
// subclusters (Fig 4): a row of leaf switches carrying hosts, a middle
// level, and a root level, with a configurable number of uplinks.
type FatTreeSpec struct {
	LeafSwitches   int
	HostsPerLeaf   int
	MidSwitches    int
	RootSwitches   int
	UplinksPerLeaf int // leaf -> mid links per leaf
	UplinksPerMid  int // mid -> root links per mid
	HostPrefix     string
}

// FatTree builds the specified tree. Uplinks are spread round-robin across
// the next level. It rejects specs that exceed port budgets.
func FatTree(spec FatTreeSpec, rng *rand.Rand) (*Network, error) {
	if spec.LeafSwitches < 1 || spec.MidSwitches < 1 || spec.RootSwitches < 1 {
		return nil, fmt.Errorf("topology: FatTree: every level needs at least one switch")
	}
	if l, m, r := spec.LeafSwitches, spec.MidSwitches, spec.RootSwitches; max(l, m, r) > MaxFabricSwitches || l+m+r > MaxFabricSwitches {
		return nil, fmt.Errorf("topology: FatTree: more than the %d-switch cap", MaxFabricSwitches)
	}
	if spec.HostsPerLeaf < 0 || spec.HostsPerLeaf+spec.UplinksPerLeaf > SwitchPorts {
		return nil, fmt.Errorf("topology: FatTree: leaf ports exceeded")
	}
	if spec.UplinksPerLeaf < 1 || spec.UplinksPerMid < 1 {
		return nil, fmt.Errorf("topology: FatTree: uplink counts must be at least 1")
	}
	if spec.HostPrefix == "" {
		spec.HostPrefix = "Node"
	}
	n := &Network{}
	nm := namer{prefix: spec.HostPrefix}
	leaves := make([]NodeID, spec.LeafSwitches)
	mids := make([]NodeID, spec.MidSwitches)
	roots := make([]NodeID, spec.RootSwitches)
	for i := range leaves {
		leaves[i] = n.AddSwitch(fmt.Sprintf("%sL%d", spec.HostPrefix, i))
	}
	for i := range mids {
		mids[i] = n.AddSwitch(fmt.Sprintf("%sM%d", spec.HostPrefix, i))
	}
	for i := range roots {
		roots[i] = n.AddSwitch(fmt.Sprintf("%sR%d", spec.HostPrefix, i))
	}
	for i, leaf := range leaves {
		for h := 0; h < spec.HostsPerLeaf; h++ {
			host := n.AddHost(nm.next())
			must(connectRandomPorts(n, host, leaf, rng))
		}
		for u := 0; u < spec.UplinksPerLeaf; u++ {
			mid := mids[(i*spec.UplinksPerLeaf+u)%len(mids)]
			if err := connectRandomPorts(n, leaf, mid, rng); err != nil {
				return nil, err
			}
		}
	}
	for i, mid := range mids {
		for u := 0; u < spec.UplinksPerMid; u++ {
			root := roots[(i*spec.UplinksPerMid+u)%len(roots)]
			if err := connectRandomPorts(n, mid, root, rng); err != nil {
				return nil, err
			}
		}
	}
	// Sparse uplink fan-outs with several roots can yield parallel disjoint
	// trees; join the roots into one top level like real installations do
	// ("additional switches can be added to increase the number of roots").
	if len(roots) > 1 && !n.IsConnected() {
		for i := 1; i < len(roots); i++ {
			if err := connectRandomPorts(n, roots[i-1], roots[i], rng); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}

// MustFatTree is FatTree that panics on error.
func MustFatTree(spec FatTreeSpec, rng *rand.Rand) *Network {
	return mustNet(FatTree(spec, rng))
}

// RandomConnected returns a connected random network with the requested
// switch and host counts plus extraLinks additional random switch-to-switch
// wires (parallel wires allowed, giving true multigraphs). Hosts attach to
// uniformly random switches with free ports. The result always validates
// and is connected; link placement respects the 8-port budget.
func RandomConnected(switches, hosts, extraLinks int, rng *rand.Rand) (*Network, error) {
	if switches < 1 || switches > MaxFabricSwitches {
		return nil, fmt.Errorf("topology: RandomConnected: between 1 and %d switches", MaxFabricSwitches)
	}
	if hosts < 0 || extraLinks < 0 {
		return nil, fmt.Errorf("topology: RandomConnected: negative counts")
	}
	// Spanning tree uses one port on each non-root switch plus one on its
	// parent; the remaining budget must cover the hosts.
	if hosts > switches*SwitchPorts-2*(switches-1) {
		return nil, fmt.Errorf("topology: RandomConnected: no free switch ports for %d hosts", hosts)
	}
	n := &Network{}
	nm := namer{prefix: "Node"}
	sw := make([]NodeID, switches)
	for i := range sw {
		sw[i] = n.AddSwitch(fmt.Sprintf("S%d", i))
	}
	// Random spanning tree: connect each switch to a random earlier one.
	// A tree this size gives some switch more children than it has ports;
	// a full one hands the new switch on to the next earlier switch with a
	// free port (there always is one: i-1 wires use 2i-2 of 8i ports).
	for i := 1; i < switches; i++ {
		j := rng.Intn(i)
		for n.FreePort(sw[j]) < 0 {
			j = (j + 1) % i
		}
		must(connectRandomPorts(n, sw[i], sw[j], rng))
	}
	// Every wire takes two switch ports.
	freePorts := switches*SwitchPorts - 2*(switches-1)
	for i := 0; i < extraLinks; i++ {
		// Reserve enough free ports for the hosts still to be attached.
		if freePorts-2 < hosts {
			break
		}
		a := sw[rng.Intn(switches)]
		b := sw[rng.Intn(switches)]
		if a == b && n.Degree(a) >= SwitchPorts-1 {
			continue
		}
		if n.FreePort(a) < 0 || n.FreePort(b) < 0 {
			continue // port budget exhausted; skip rather than fail
		}
		if err := connectRandomPorts(n, a, b, rng); err != nil {
			continue
		}
		freePorts -= 2
	}
	full := 0 // switches before sw[full] have no free port, and never regain one
	for h := 0; h < hosts; h++ {
		// Find a switch with a free port; bounded retries then linear scan.
		var target NodeID = None
		for try := 0; try < 8; try++ {
			c := sw[rng.Intn(switches)]
			if n.FreePort(c) >= 0 {
				target = c
				break
			}
		}
		for ; target == None && full < switches; full++ {
			if n.FreePort(sw[full]) >= 0 {
				target = sw[full]
				break
			}
		}
		if target == None {
			return nil, fmt.Errorf("topology: RandomConnected: no free switch ports for hosts")
		}
		host := n.AddHost(nm.next())
		must(connectRandomPorts(n, host, target, rng))
	}
	return n, nil
}

// MustRandomConnected is RandomConnected that panics on error.
func MustRandomConnected(switches, hosts, extraLinks int, rng *rand.Rand) *Network {
	return mustNet(RandomConnected(switches, hosts, extraLinks, rng))
}

// WithTail attaches a hostless chain of `tail` switches behind the given
// switch, creating a switch-bridge and therefore a non-empty F — the
// configuration Lemma 1 and the prune stage are about. When the given
// switch has no free port, another switch with one is used; when none has,
// the network is returned unchanged.
func WithTail(n *Network, behind NodeID, tail int, rng *rand.Rand) *Network {
	if n.FreePort(behind) < 0 {
		behind = None
		for _, s := range n.Switches() {
			if n.FreePort(s) >= 0 {
				behind = s
				break
			}
		}
		if behind == None {
			return n
		}
	}
	prev := behind
	for i := 0; i < tail; i++ {
		s := n.AddSwitch(fmt.Sprintf("F%d-%d", behind, i))
		must(connectRandomPorts(n, prev, s, rng))
		prev = s
	}
	return n
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func mustNet(n *Network, err error) *Network {
	must(err)
	return n
}
