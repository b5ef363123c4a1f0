package topology

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
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
		if nd.kind != HostNode && nd.nports != SwitchPorts {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(nd.nports), 10)
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
		for p, w := range n.portsOf(NodeID(i)) {
			if w == plugged {
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

// ReadFrom parses the textual format into a fresh network. It reads r to
// the end and parses the text as Parse does; a read error is returned when
// the text read before it parses.
func ReadFrom(r io.Reader) (*Network, error) {
	data, rerr := io.ReadAll(r)
	n, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, rerr
	}
	return n, nil
}

// Parse parses the textual format into a fresh network. The text is copied
// once and tokenised in place: every node name is a substring of that one
// copy, and a header written by Write sizes the network's tables up front.
// Lines follow bufio.Scanner's rules, so a line of bufio.MaxScanTokenSize
// bytes or more fails with bufio.ErrTooLong once the lines before it have
// parsed.
func Parse(data []byte) (*Network, error) {
	text := string(data)
	n := &Network{}
	if hosts, switches, links, ok := headerCounts(text); ok {
		// No table grows past one entry per line from a header that lies.
		lines := strings.Count(text, "\n") + 1
		hosts, switches = min(hosts, lines), min(switches, lines)
		n.Grow(min(hosts+switches, lines), hosts+SwitchPorts*switches, min(links, lines))
	}
	lineNo := 0
	lookup := func(name string) (NodeID, error) {
		if id := n.Lookup(name); id != None {
			return id, nil
		}
		return None, fmt.Errorf("line %d: unknown node %q", lineNo, name)
	}
	var f [5]string
	for rest := text; rest != ""; {
		lineNo++
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if len(line) >= bufio.MaxScanTokenSize {
			return nil, bufio.ErrTooLong
		}
		nf := fields(line, &f)
		if nf == 0 || f[0][0] == '#' {
			continue
		}
		switch f[0] {
		case "host", "switch":
			if nf != 2 && !(f[0] == "switch" && nf == 3) {
				return nil, fmt.Errorf("line %d: want '%s <name>'", lineNo, f[0])
			}
			if n.Lookup(f[1]) != None {
				return nil, fmt.Errorf("line %d: duplicate node %q", lineNo, f[1])
			}
			switch {
			case f[0] == "host":
				n.AddHost(f[1])
			case nf == 3:
				radix, err := strconv.Atoi(f[2])
				if err != nil || radix < 1 || radix > MaxSwitchRadix {
					return nil, fmt.Errorf("line %d: bad switch radix %q", lineNo, f[2])
				}
				n.AddSwitchRadix(f[1], radix)
			default:
				n.AddSwitch(f[1])
			}
		case "wire":
			if nf != 5 {
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
			if nf != 3 {
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
	return n, nil
}

// headerCounts reads the counts off the comment line Write puts first,
// "# H hosts, S switches, L links". They only size tables: Parse trusts
// the lines that follow, not the header.
func headerCounts(text string) (hosts, switches, links int, ok bool) {
	line, _, _ := strings.Cut(text, "\n")
	rest, ok1 := strings.CutPrefix(line, "# ")
	h, rest, ok2 := strings.Cut(rest, " hosts, ")
	s, rest, ok3 := strings.Cut(rest, " switches, ")
	l, ok4 := strings.CutSuffix(rest, " links")
	if !(ok1 && ok2 && ok3 && ok4) {
		return 0, 0, 0, false
	}
	var err [3]error
	hosts, err[0] = strconv.Atoi(h)
	switches, err[1] = strconv.Atoi(s)
	links, err[2] = strconv.Atoi(l)
	if err != [3]error{} || hosts < 0 || switches < 0 || links < 0 {
		return 0, 0, 0, false
	}
	return hosts, switches, links, true
}

// fields splits line around runs of white space as strings.Fields does,
// keeping the first len(f) fields in f, and returns the field count. An
// ASCII line is split in place; any other goes through strings.Fields,
// which knows Unicode's spaces.
func fields(line string, f *[5]string) int {
	for i := 0; i < len(line); i++ {
		if line[i] >= utf8.RuneSelf {
			all := strings.Fields(line)
			copy(f[:], all)
			return len(all)
		}
	}
	nf := 0
	for i := 0; i < len(line); {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		if i == len(line) {
			break
		}
		lo := i
		for i < len(line) && !asciiSpace[line[i]] {
			i++
		}
		if nf < len(f) {
			f[nf] = line[lo:i]
		}
		nf++
	}
	return nf
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}
