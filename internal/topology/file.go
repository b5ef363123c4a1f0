package topology

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Textual network format for the command-line tools:
//
//	# comment / blank lines ignored
//	host <name>
//	switch <name> [radix]
//	wire <nodeA> <portA> <nodeB> <portB>
//	reflector <switch> <port>
//
// Nodes are referenced by name; switches that were built unnamed are
// emitted as sw<N>. The radix field appears only for switches whose port
// count differs from the default SwitchPorts, keeping legacy files and
// their byte-identical round-trips unchanged. Write output is stable
// (sorted) and round-trips through ReadFrom.

// Write serialises the network. Unnamed switches get synthetic names.
// The text is appended into one buffer and handed to w in a single Write.
func (n *Network) Write(w io.Writer) error {
	// Every node's name, synthetic ones included, lives in one arena:
	// node i's is names[off[i]:off[i+1]].
	off := make([]int, len(n.nodes)+1)
	names := make([]byte, 0, 8*len(n.nodes))
	for i := range n.nodes {
		if name := n.nodes[i].name; name != "" {
			names = append(names, name...)
		} else {
			names = append(names, "sw"...)
			names = strconv.AppendInt(names, int64(i), 10)
		}
		off[i+1] = len(names)
	}
	name := func(id NodeID) []byte { return names[off[id]:off[id+1]] }

	// A wire line holds two names and two ports; size the arena from the
	// mean name length.
	wireLen := 16 + 2*len(names)/max(len(n.nodes), 1)
	lines := make([]byte, 0, wireLen*n.NumWires())
	spans := make([]lineSpan, 0, n.NumWires())
	buf := make([]byte, 0, 64+len(names)+10*len(n.nodes)+cap(lines))

	buf = append(buf, "# "...)
	buf = strconv.AppendInt(buf, int64(n.NumHosts()), 10)
	buf = append(buf, " hosts, "...)
	buf = strconv.AppendInt(buf, int64(n.NumSwitches()), 10)
	buf = append(buf, " switches, "...)
	buf = strconv.AppendInt(buf, int64(n.NumWires()), 10)
	buf = append(buf, " links\n"...)
	// Node lines keep insertion order (hosts may depend on it); wires and
	// reflectors are sorted for stability.
	for i := range n.nodes {
		nd := &n.nodes[i]
		if nd.kind == HostNode {
			buf = append(buf, "host "...)
		} else {
			buf = append(buf, "switch "...)
		}
		buf = append(buf, name(NodeID(i))...)
		if nd.kind != HostNode && len(nd.ports) != SwitchPorts {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(len(nd.ports)), 10)
		}
		buf = append(buf, '\n')
	}
	for i, w := range n.wires {
		if n.dead[i] {
			continue
		}
		lo := len(lines)
		lines = append(lines, "wire "...)
		lines = append(lines, name(w.A.Node)...)
		lines = append(lines, ' ')
		lines = strconv.AppendInt(lines, int64(w.A.Port), 10)
		lines = append(lines, ' ')
		lines = append(lines, name(w.B.Node)...)
		lines = append(lines, ' ')
		lines = strconv.AppendInt(lines, int64(w.B.Port), 10)
		spans = append(spans, lineSpan{lo, len(lines)})
	}
	buf = appendSorted(buf, lines, spans)
	lines, spans = lines[:0], spans[:0]
	for i := range n.nodes {
		for p, r := range n.nodes[i].reflect {
			if r {
				lo := len(lines)
				lines = append(lines, "reflector "...)
				lines = append(lines, name(NodeID(i))...)
				lines = append(lines, ' ')
				lines = strconv.AppendInt(lines, int64(p), 10)
				spans = append(spans, lineSpan{lo, len(lines)})
			}
		}
	}
	buf = appendSorted(buf, lines, spans)
	_, err := w.Write(buf)
	return err
}

// lineSpan is one line of an arena, lines[lo:hi], without its newline.
type lineSpan struct{ lo, hi int }

// appendSorted appends the arena's lines to buf in bytewise order — the
// order sort.Strings gives the same lines as strings — each with a newline.
func appendSorted(buf, lines []byte, spans []lineSpan) []byte {
	slices.SortFunc(spans, func(a, b lineSpan) int {
		return bytes.Compare(lines[a.lo:a.hi], lines[b.lo:b.hi])
	})
	for _, s := range spans {
		buf = append(buf, lines[s.lo:s.hi]...)
		buf = append(buf, '\n')
	}
	return buf
}

// ReadFrom parses the textual format into a fresh network.
func ReadFrom(r io.Reader) (*Network, error) {
	n := &Network{}
	byName := make(map[string]NodeID)
	sc := bufio.NewScanner(r)
	lineNo := 0
	lookup := func(name string) (NodeID, error) {
		if id, ok := byName[name]; ok {
			return id, nil
		}
		return None, fmt.Errorf("line %d: unknown node %q", lineNo, name)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "host", "switch":
			if len(f) != 2 && !(f[0] == "switch" && len(f) == 3) {
				return nil, fmt.Errorf("line %d: want '%s <name>'", lineNo, f[0])
			}
			if _, dup := byName[f[1]]; dup {
				return nil, fmt.Errorf("line %d: duplicate node %q", lineNo, f[1])
			}
			var id NodeID
			switch {
			case f[0] == "host":
				id = n.AddHost(f[1])
			case len(f) == 3:
				radix, err := strconv.Atoi(f[2])
				if err != nil || radix < 1 || radix > MaxSwitchRadix {
					return nil, fmt.Errorf("line %d: bad switch radix %q", lineNo, f[2])
				}
				id = n.AddSwitchRadix(f[1], radix)
			default:
				id = n.AddSwitch(f[1])
			}
			byName[f[1]] = id
		case "wire":
			if len(f) != 5 {
				return nil, fmt.Errorf("line %d: want 'wire <a> <pa> <b> <pb>'", lineNo)
			}
			a, err := lookup(f[1])
			if err != nil {
				return nil, err
			}
			b, err := lookup(f[3])
			if err != nil {
				return nil, err
			}
			pa, err1 := strconv.Atoi(f[2])
			pb, err2 := strconv.Atoi(f[4])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad port number", lineNo)
			}
			if _, err := n.Connect(a, pa, b, pb); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
		case "reflector":
			if len(f) != 3 {
				return nil, fmt.Errorf("line %d: want 'reflector <switch> <port>'", lineNo)
			}
			id, err := lookup(f[1])
			if err != nil {
				return nil, err
			}
			p, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad port number", lineNo)
			}
			if err := n.AddReflector(id, p); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return n, nil
}
