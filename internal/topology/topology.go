// Package topology models the system area networks of the SPAA'97 mapping
// paper: finite multigraphs over hosts and switches whose wire-ends carry
// port numbers (§2.1 of the paper).
//
// A switch has eight ports numbered 0..7 (higher radices up to
// MaxSwitchRadix are available for datacenter fabrics); a host has a
// single port 0. A wire
// joins two (node, port) ends; no two wire-ends on the same node share a
// port. Self-loop cables (both ends on one switch) are permitted — Myrinet
// installations used loopback cables, and the Myricom mapping algorithm
// probes for them explicitly (§4.1).
//
// Storage is per structure, not per node: a Network keeps every node's
// port table in one arena and indexes it by offset, and builders that know
// their sizes reserve every table once with Grow. The text format (file.go)
// is parsed in place by Parse: one copy of the text, node names sliced out
// of it, and tables sized from the header Write puts first.
//
// The package also provides the graph analyses the paper relies on: the
// diameter D, bridges and switch-bridges, the unmappable set F, the core
// N−F (Lemma 1), and the probe-depth parameter Q (Definitions 2 and 3).
package topology

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync/atomic"
)

// SwitchPorts is the default number of ports on a switch (§2.1: "A switch
// has eight allowable port-numbers: {0, ..., 7}"). Datacenter-scale
// generators build higher-radix switches via AddSwitchRadix.
const SwitchPorts = 8

// MaxSwitchRadix bounds the port count of a switch. Relative turns are
// signed port differences carried in an int8 routing flit, so a radix
// beyond 128 would overflow the turn encoding.
const MaxSwitchRadix = 128

// HostPort is the single port number of a host.
const HostPort = 0

// NoWire marks an unconnected port.
const NoWire = int32(-1)

// Kind distinguishes the two node types of the model.
type Kind uint8

const (
	// HostNode is a workstation with one network interface (one port).
	HostNode Kind = iota
	// SwitchNode is an anonymous crossbar switch (8 ports by default).
	SwitchNode
)

// String returns "host" or "switch".
func (k Kind) String() string {
	if k == HostNode {
		return "host"
	}
	return "switch"
}

// NodeID identifies a node within a Network. IDs are dense indices assigned
// in insertion order.
type NodeID int32

// None is the invalid node id.
const None NodeID = -1

// End is one end of a wire: a (node, port) pair (§2.1).
type End struct {
	Node NodeID
	Port int
}

// Wire is an undirected edge between two wire-ends. For self-loop cables
// A.Node == B.Node with distinct ports.
type Wire struct {
	A, B End
}

// Other returns the end of w opposite to the given end. It panics if from is
// not an end of w.
//
//sanlint:hotpath
func (w Wire) Other(from End) End {
	switch from {
	case w.A:
		return w.B
	case w.B:
		return w.A
	}
	panic(fmt.Sprintf("topology: %v is not an end of wire %v", from, w))
}

// Touches reports whether the wire has an end on node n.
func (w Wire) Touches(n NodeID) bool { return w.A.Node == n || w.B.Node == n }

// node is the internal node record. Its ports live in the network's port
// arena: node i's port p is Network.ports[off+p], for p below nports.
type node struct {
	name   string
	off    int32
	nports uint8 // at most MaxSwitchRadix
	kind   Kind
}

// plugged is the port-arena entry of a port carrying a loopback plug: a
// terminator that sends anything exiting the port straight back in.
// Myrinet installations used loopback cables on unused switch ports, and
// the Myricom mapping algorithm probes for them explicitly (§4.1's "loop"
// probes). A plugged port holds no wire, so every test for a cable is a
// test for an entry >= 0.
const plugged = NoWire - 1

// Network is a mutable multigraph of hosts and switches. Every node's port
// table lives in the one ports arena, an entry per port: a wire index,
// NoWire, or plugged.
//
// The zero value is an empty network ready for use. Networks are not safe
// for concurrent mutation; the simulator and mappers treat them as
// read-only once built.
type Network struct {
	nodes []node
	ports []int32
	wires []Wire
	// dead marks wires removed by RemoveWire so indices stay stable.
	dead   []bool
	nDead  int
	byName map[string]NodeID
	// version counts structural mutations (nodes, wires, reflectors). Route
	// evaluators and the CSR index key their cached state on it, so
	// reconfiguring a network invalidates caches automatically. Every
	// method writing one of the fields above bumps it; a mutator that does
	// not fails TestComponents or simnet's TestEvalCacheTopologyInvalidation.
	version uint64
	// csr is the cached flat-adjacency view (csr.go). It is derived state
	// keyed on version, rebuilt lazily by Index(); updating it is not a
	// structural mutation, and the slot is atomic so concurrent readers of
	// an unchanging network may all call Index().
	csr atomic.Pointer[Index]
}

// portsOf returns node id's port table, aliasing the arena.
//
//sanlint:hotpath
func (n *Network) portsOf(id NodeID) []int32 {
	nd := &n.nodes[id]
	end := nd.off + int32(nd.nports)
	return n.ports[nd.off:end:end]
}

// Grow reserves room for nodes more nodes carrying ports more ports
// between them, and for wires more wires, so that a builder that knows
// its sizes fills each table without growing it again. It changes nothing
// else: ids, wire indices and Version stay as they are.
func (n *Network) Grow(nodes, ports, wires int) {
	n.nodes = slices.Grow(n.nodes, nodes)
	n.ports = slices.Grow(n.ports, ports)
	n.wires = slices.Grow(n.wires, wires)
	n.dead = slices.Grow(n.dead, wires)
	if n.byName == nil && nodes > 0 {
		n.byName = make(map[string]NodeID, nodes)
	}
}

// Version reports the structural mutation counter: it changes whenever a
// node, wire or loopback plug is added or a wire removed. Equal versions of
// the same Network value guarantee identical routing behaviour.
//
//sanlint:hotpath
func (n *Network) Version() uint64 { return n.version }

// AddHost appends a host with the given unique name and returns its id.
// Host names are the unique identifiers probes report (§2.3: "Hosts are
// uniquely identified").
func (n *Network) AddHost(name string) NodeID {
	return n.addNode(HostNode, name, 1)
}

// AddSwitch appends an anonymous switch and returns its id. The name is a
// label for rendering and debugging only; the mapping algorithms never see
// it (Myrinet "lacks a mechanism to query a switch ... for a unique id").
func (n *Network) AddSwitch(name string) NodeID {
	return n.addNode(SwitchNode, name, SwitchPorts)
}

// AddSwitchRadix appends a switch with the given port count, for the
// datacenter fabrics whose spine and group switches exceed eight ports.
// It panics when radix is outside [1, MaxSwitchRadix]; generators validate
// their parameters before calling.
func (n *Network) AddSwitchRadix(name string, radix int) NodeID {
	if radix < 1 || radix > MaxSwitchRadix {
		panic(fmt.Sprintf("topology: switch radix %d outside [1, %d]", radix, MaxSwitchRadix))
	}
	return n.addNode(SwitchNode, name, radix)
}

// MaxPorts reports the largest port count of any node (0 for an empty
// network). Simulators and mappers derive their turn windows from it: a
// radix-r switch admits relative turns in [-(r-1), r-1].
func (n *Network) MaxPorts() int {
	m := 0
	for i := range n.nodes {
		m = max(m, int(n.nodes[i].nports))
	}
	return m
}

func (n *Network) addNode(kind Kind, name string, ports int) NodeID {
	if name != "" {
		if n.byName == nil {
			n.byName = make(map[string]NodeID)
		}
		if _, dup := n.byName[name]; dup {
			panic(fmt.Sprintf("topology: duplicate node name %q", name))
		}
		n.byName[name] = NodeID(len(n.nodes))
	}
	off := len(n.ports)
	n.ports = slices.Grow(n.ports, ports)[:off+ports]
	for i := off; i < len(n.ports); i++ {
		n.ports[i] = NoWire
	}
	n.nodes = append(n.nodes, node{kind: kind, name: name, off: int32(off), nports: uint8(ports)})
	n.version++
	return NodeID(len(n.nodes) - 1)
}

// Connect joins (a, ap) to (b, bp) with a new wire and returns its index.
// It returns an error if either end is out of range or already cabled, or
// if the two ends are the same port of the same node.
func (n *Network) Connect(a NodeID, ap int, b NodeID, bp int) (int, error) {
	if err := n.checkEnd(a, ap); err != nil {
		return 0, err
	}
	if err := n.checkEnd(b, bp); err != nil {
		return 0, err
	}
	if a == b && ap == bp {
		return 0, fmt.Errorf("topology: cannot cable port %d of node %d to itself", ap, a)
	}
	w := int32(len(n.wires))
	n.wires = append(n.wires, Wire{A: End{a, ap}, B: End{b, bp}})
	n.dead = append(n.dead, false)
	n.ports[n.nodes[a].off+int32(ap)] = w
	n.ports[n.nodes[b].off+int32(bp)] = w
	n.version++
	return int(w), nil
}

// MustConnect is Connect that panics on error; intended for generators and
// tests where the caller controls both ends.
func (n *Network) MustConnect(a NodeID, ap int, b NodeID, bp int) int {
	w, err := n.Connect(a, ap, b, bp)
	if err != nil {
		panic(err)
	}
	return w
}

// ConnectFree cables the lowest-numbered free ports of a and b and returns
// the wire index and the ports used.
func (n *Network) ConnectFree(a, b NodeID) (wire, ap, bp int, err error) {
	ap = n.FreePort(a)
	if ap < 0 {
		return 0, 0, 0, fmt.Errorf("topology: node %d has no free port", a)
	}
	bp = n.FreePort(b)
	if a == b {
		// A self-loop cable needs two distinct free ports.
		for bp == ap || (bp >= 0 && n.portsOf(b)[bp] >= 0) {
			bp++
			if bp >= n.NumPorts(b) {
				bp = -1
				break
			}
		}
	}
	if bp < 0 {
		return 0, 0, 0, fmt.Errorf("topology: node %d has no free port", b)
	}
	wire, err = n.Connect(a, ap, b, bp)
	return wire, ap, bp, err
}

func (n *Network) checkEnd(id NodeID, port int) error {
	if id < 0 || int(id) >= len(n.nodes) {
		return fmt.Errorf("topology: node %d out of range", id)
	}
	kind, ports := n.nodes[id].kind, n.portsOf(id)
	if port < 0 || port >= len(ports) {
		return fmt.Errorf("topology: port %d out of range for %s %d", port, kind, id)
	}
	if ports[port] >= 0 {
		return fmt.Errorf("topology: port %d of %s %d already cabled", port, kind, id)
	}
	if ports[port] == plugged {
		return fmt.Errorf("topology: port %d of %s %d carries a loopback plug", port, kind, id)
	}
	return nil
}

// AddReflector installs a loopback plug on a free switch port: messages
// exiting the port re-enter it immediately.
func (n *Network) AddReflector(id NodeID, port int) error {
	if err := n.checkEnd(id, port); err != nil {
		return err
	}
	if n.nodes[id].kind != SwitchNode {
		return fmt.Errorf("topology: loopback plugs go on switches, not %s %d", n.nodes[id].kind, id)
	}
	n.portsOf(id)[port] = plugged
	n.version++
	return nil
}

// ReflectorAt reports whether (id, port) carries a loopback plug.
//
//sanlint:hotpath
func (n *Network) ReflectorAt(id NodeID, port int) bool {
	ports := n.portsOf(id)
	return port >= 0 && port < len(ports) && ports[port] == plugged
}

// Reflectors returns all loopback-plugged ends.
func (n *Network) Reflectors() []End {
	var out []End
	for i := range n.nodes {
		for p, w := range n.portsOf(NodeID(i)) {
			if w == plugged {
				out = append(out, End{NodeID(i), p})
			}
		}
	}
	return out
}

// RemoveWire disconnects the wire with the given index. Wire indices of
// other wires are unchanged. Removing an already-removed wire is an error.
func (n *Network) RemoveWire(w int) error {
	if w < 0 || w >= len(n.wires) || n.dead[w] {
		return fmt.Errorf("topology: no wire %d", w)
	}
	wire := n.wires[w]
	n.portsOf(wire.A.Node)[wire.A.Port] = NoWire
	n.portsOf(wire.B.Node)[wire.B.Port] = NoWire
	n.dead[w] = true
	n.nDead++
	n.version++
	return nil
}

// NumNodes reports the total node count (hosts + switches).
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumWires reports the number of live wires ("links" in the paper's
// component tables, Fig 3).
func (n *Network) NumWires() int { return len(n.wires) - n.nDead }

// NumHosts reports the number of hosts ("interfaces" in Fig 3; each host
// has exactly one network interface).
func (n *Network) NumHosts() int {
	c := 0
	for i := range n.nodes {
		if n.nodes[i].kind == HostNode {
			c++
		}
	}
	return c
}

// NumSwitches reports the number of switches.
func (n *Network) NumSwitches() int { return len(n.nodes) - n.NumHosts() }

// KindOf reports the kind of node id.
//
//sanlint:hotpath
func (n *Network) KindOf(id NodeID) Kind { return n.nodes[id].kind }

// NameOf reports the node's name ("" for unnamed switches).
//
//sanlint:hotpath
func (n *Network) NameOf(id NodeID) string { return n.nodes[id].name }

// Lookup returns the node with the given name, or None.
func (n *Network) Lookup(name string) NodeID {
	if id, ok := n.byName[name]; ok {
		return id
	}
	return None
}

// LookupBytes is Lookup for a name still sitting in a read buffer: the
// conversion inside a map index does not allocate.
//
//sanlint:hotpath
func (n *Network) LookupBytes(name []byte) NodeID {
	if id, ok := n.byName[string(name)]; ok {
		return id
	}
	return None
}

// NumPorts reports the port count of node id (8 for switches, 1 for hosts).
//
//sanlint:hotpath
func (n *Network) NumPorts(id NodeID) int { return int(n.nodes[id].nports) }

// WireAt returns the index of the wire cabled to (id, port), or -1.
//
//sanlint:hotpath
func (n *Network) WireAt(id NodeID, port int) int {
	nd := &n.nodes[id]
	if port < 0 || port >= int(nd.nports) {
		return -1
	}
	// A loopback plug holds no wire.
	return int(max(n.ports[int(nd.off)+port], NoWire))
}

// Neighbor follows the wire at (id, port) and returns the opposite end.
// ok is false when the port is empty or out of range.
func (n *Network) Neighbor(id NodeID, port int) (End, bool) {
	w := n.WireAt(id, port)
	if w < 0 {
		return End{}, false
	}
	return n.wires[w].Other(End{id, port}), true
}

// WireAlive reports whether wire index w names a live wire: in range and
// not removed. Replay engines holding wire indices from a route table
// computed on an earlier structural version use it to detect routes that a
// link cut has since broken, without tripping WireByIndex's panic.
//
//sanlint:hotpath
func (n *Network) WireAlive(w int) bool {
	return w >= 0 && w < len(n.wires) && !n.dead[w]
}

// NumWireSlots reports the length of the wire index space: live and removed
// wires together. Indices in [0, NumWireSlots()) are the stable identifiers
// WiresIndexed hands out; per-wire accumulator arrays size themselves here.
func (n *Network) NumWireSlots() int { return len(n.wires) }

// WireByIndex returns wire w. It panics for removed or out-of-range wires.
//
//sanlint:hotpath
func (n *Network) WireByIndex(w int) Wire {
	if w < 0 || w >= len(n.wires) || n.dead[w] {
		panic(fmt.Sprintf("topology: no wire %d", w))
	}
	return n.wires[w]
}

// Wires returns the live wires in index order. The slice is freshly
// allocated; indices in the result do not correspond to wire indices when
// wires have been removed — use WiresIndexed for that.
func (n *Network) Wires() []Wire {
	out := make([]Wire, 0, n.NumWires())
	for i, w := range n.wires {
		if !n.dead[i] {
			out = append(out, w)
		}
	}
	return out
}

// WiresIndexed calls f for every live wire with its stable index.
func (n *Network) WiresIndexed(f func(index int, w Wire)) {
	for i, w := range n.wires {
		if !n.dead[i] {
			f(i, w)
		}
	}
}

// Degree reports the number of cabled ports of node id. A self-loop cable
// contributes two.
func (n *Network) Degree(id NodeID) int {
	d := 0
	for _, w := range n.portsOf(id) {
		if w >= 0 {
			d++
		}
	}
	return d
}

// FreePort returns the lowest-numbered empty port of id, or -1.
func (n *Network) FreePort(id NodeID) int {
	for p, w := range n.portsOf(id) {
		if w < 0 {
			return p
		}
	}
	return -1
}

// Hosts returns the ids of all hosts in insertion order.
func (n *Network) Hosts() []NodeID {
	var out []NodeID
	for i := range n.nodes {
		if n.nodes[i].kind == HostNode {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Switches returns the ids of all switches in insertion order.
func (n *Network) Switches() []NodeID {
	var out []NodeID
	for i := range n.nodes {
		if n.nodes[i].kind == SwitchNode {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// HostSwitch returns the switch a host is cabled to and the switch-side
// port, or (None, 0, false) for a disconnected host. Every host has a single
// network connection (§1.2), which is what makes hosts usable as merge
// anchors by the mapping algorithm.
func (n *Network) HostSwitch(h NodeID) (sw NodeID, port int, ok bool) {
	if n.nodes[h].kind != HostNode {
		return None, 0, false
	}
	end, ok := n.Neighbor(h, HostPort)
	if !ok {
		return None, 0, false
	}
	return end.Node, end.Port, true
}

// MappingHost chooses the host a mapper probes from: the node named by
// override, else the utility host, else the first host with a cable. An
// override that names no node, a switch or a host without a cable is an
// error, as is a network with no cabled host at all.
func (n *Network) MappingHost(utility, override string) (NodeID, error) {
	cabled := func(h NodeID) bool {
		_, _, ok := n.HostSwitch(h)
		return ok
	}
	if override != "" {
		h := n.Lookup(override)
		switch {
		case h == None:
			return None, fmt.Errorf("mapper %q: no such node", override)
		case n.KindOf(h) != HostNode:
			return None, fmt.Errorf("mapper %q is a switch, not a host", override)
		case !cabled(h):
			return None, fmt.Errorf("mapper %q has no cable", override)
		}
		return h, nil
	}
	if h := n.Lookup(utility); h != None && cabled(h) {
		return h, nil
	}
	for _, h := range n.Hosts() {
		if cabled(h) {
			return h, nil
		}
	}
	return None, errors.New("no cabled host to map from")
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	return &Network{
		nodes:   slices.Clone(n.nodes),
		ports:   slices.Clone(n.ports),
		wires:   slices.Clone(n.wires),
		dead:    slices.Clone(n.dead),
		nDead:   n.nDead,
		byName:  maps.Clone(n.byName),
		version: n.version,
	}
}

// Validate checks the structural invariants of the model: port ranges,
// mutual consistency of wires and ports, unique host names, and hosts having
// at most one wire. It returns the first violation found.
func (n *Network) Validate() error {
	names := make(map[string]NodeID)
	for i := range n.nodes {
		nd, ports := &n.nodes[i], n.portsOf(NodeID(i))
		if nd.kind == HostNode {
			if len(ports) != 1 {
				return fmt.Errorf("node %d: host has %d ports, want 1", i, len(ports))
			}
		} else if len(ports) < 1 || len(ports) > MaxSwitchRadix {
			return fmt.Errorf("node %d: switch has %d ports, want 1..%d", i, len(ports), MaxSwitchRadix)
		}
		if nd.name != "" {
			if prev, dup := names[nd.name]; dup {
				return fmt.Errorf("nodes %d and %d share name %q", prev, i, nd.name)
			}
			names[nd.name] = NodeID(i)
		}
		for p, wi := range ports {
			if wi < 0 {
				continue
			}
			if wi < 0 || int(wi) >= len(n.wires) || n.dead[wi] {
				return fmt.Errorf("node %d port %d references missing wire %d", i, p, wi)
			}
			w := n.wires[wi]
			e := End{NodeID(i), p}
			if w.A != e && w.B != e {
				return fmt.Errorf("node %d port %d references wire %d that does not touch it", i, p, wi)
			}
		}
	}
	for wi, w := range n.wires {
		if n.dead[wi] {
			continue
		}
		for _, e := range []End{w.A, w.B} {
			if e.Node < 0 || int(e.Node) >= len(n.nodes) {
				return fmt.Errorf("wire %d end %v: node out of range", wi, e)
			}
			if got := n.portsOf(e.Node)[e.Port]; got != int32(wi) {
				return fmt.Errorf("wire %d end %v: port table says wire %d", wi, e, got)
			}
		}
	}
	return nil
}

// Stats summarises the component counts the paper tabulates in Fig 3.
type Stats struct {
	Hosts    int // network interfaces (one per host)
	Switches int
	Links    int // wires, including host links and loopback cables
}

// Stats returns the component counts of the network.
func (n *Network) Stats() Stats {
	return Stats{Hosts: n.NumHosts(), Switches: n.NumSwitches(), Links: n.NumWires()}
}

// String renders a short human-readable summary.
func (n *Network) String() string {
	s := n.Stats()
	return fmt.Sprintf("network{hosts: %d, switches: %d, links: %d}", s.Hosts, s.Switches, s.Links)
}

// SortedHostNames returns all host names in lexicographic order; handy for
// deterministic iteration in tests and tools.
func (n *Network) SortedHostNames() []string {
	var names []string
	for i := range n.nodes {
		if n.nodes[i].kind == HostNode {
			names = append(names, n.nodes[i].name)
		}
	}
	sort.Strings(names)
	return names
}
