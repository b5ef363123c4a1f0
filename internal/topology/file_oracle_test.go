package topology

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WriteOracle is Network.Write as it was written with a name map and one
// fmt.Sprintf string per line, kept as the oracle the append encoder in
// file.go must match byte for byte (file_diff_test.go). It is exported so
// the external test package, which may import genspec, can call it.
func WriteOracle(n *Network, w io.Writer) error {
	bw := bufio.NewWriter(w)
	names := make(map[NodeID]string, len(n.nodes))
	for i := range n.nodes {
		id := NodeID(i)
		name := n.nodes[i].name
		if name == "" {
			name = fmt.Sprintf("sw%d", i)
		}
		names[id] = name
	}
	fmt.Fprintf(bw, "# %d hosts, %d switches, %d links\n",
		n.NumHosts(), n.NumSwitches(), n.NumWires())
	var lines []string
	for i := range n.nodes {
		switch {
		case n.nodes[i].kind == HostNode:
			lines = append(lines, fmt.Sprintf("host %s", names[NodeID(i)]))
		case n.NumPorts(NodeID(i)) != SwitchPorts:
			lines = append(lines, fmt.Sprintf("switch %s %d", names[NodeID(i)], n.NumPorts(NodeID(i))))
		default:
			lines = append(lines, fmt.Sprintf("switch %s", names[NodeID(i)]))
		}
	}
	// Node lines keep insertion order (hosts may depend on it); wires and
	// reflectors are sorted for stability.
	for _, l := range lines {
		fmt.Fprintln(bw, l)
	}
	var wires []string
	n.WiresIndexed(func(_ int, w Wire) {
		wires = append(wires, fmt.Sprintf("wire %s %d %s %d",
			names[w.A.Node], w.A.Port, names[w.B.Node], w.B.Port))
	})
	sort.Strings(wires)
	for _, l := range wires {
		fmt.Fprintln(bw, l)
	}
	var refl []string
	for _, e := range n.Reflectors() {
		refl = append(refl, fmt.Sprintf("reflector %s %d", names[e.Node], e.Port))
	}
	sort.Strings(refl)
	for _, l := range refl {
		fmt.Fprintln(bw, l)
	}
	return bw.Flush()
}
