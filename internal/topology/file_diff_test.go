package topology_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sanmap/internal/faults"
	"sanmap/internal/genspec"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// genSpecs gives one spec per genspec generator.
var genSpecs = map[string]string{
	"butterfly": "butterfly:2x3",
	"d3":        "d3:4,3",
	"dragonfly": "dragonfly:3,2,1",
	"fattree":   "fattree:4x3",
	"fattree2":  "fattree2:12x2",
	"hypercube": "hypercube:3",
	"line":      "line:3",
	"mesh":      "mesh:3x3",
	"now-c":     "now-c",
	"now-ca":    "now-ca",
	"now-cab":   "now-cab",
	"random":    "random:5,8,2",
	"ring":      "ring:4",
	"star":      "star:3",
	"torus":     "torus:3x3",
}

// requireWriteMatchesOracle fails unless Write and the fmt-based oracle
// render n to the same bytes, and returns them.
func requireWriteMatchesOracle(t *testing.T, n *topology.Network, where string) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := n.Write(&got); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if err := topology.WriteOracle(n, &want); err != nil {
		t.Fatalf("%s: oracle: %v", where, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: Write differs from the oracle:\n%s\nvs oracle\n%s", where, got.Bytes(), want.Bytes())
	}
	return got.Bytes()
}

// TestWriteMatchesOracle renders every generator under three seeds, plain,
// with up to three loopback plugs and with a two-switch tail — sangen's
// -loops 3 and -tail 2 — through both encoders. Fabrics that use every
// switch port (butterfly, dragonfly) take no plug.
func TestWriteMatchesOracle(t *testing.T) {
	plugged := 0
	for _, name := range genspec.Names() {
		spec, ok := genSpecs[name]
		if !ok {
			t.Fatalf("generator %q has no spec here", name)
		}
		for seed := int64(1); seed <= 3; seed++ {
			for _, variant := range []string{"plain", "loops", "tail"} {
				rng := rand.New(rand.NewSource(seed))
				res, err := genspec.Build(spec, rng)
				if err != nil {
					t.Fatal(err)
				}
				n := res.Net
				switch variant {
				case "loops":
					plugged += addLoops(n, 3)
				case "tail":
					sw := n.Switches()
					topology.WithTail(n, sw[rng.Intn(len(sw))], 2, rng)
				}
				requireWriteMatchesOracle(t, n, fmt.Sprintf("%s seed=%d %s", spec, seed, variant))
			}
		}
	}
	if want := 3 * 3 * (len(genSpecs) - 2); plugged != want {
		t.Fatalf("placed %d loopback plugs, want %d", plugged, want)
	}
}

// addLoops plugs up to k loopback plugs into the first free switch ports,
// as sangen -loops does, and returns how many it placed.
func addLoops(n *topology.Network, k int) int {
	placed := 0
	for _, s := range n.Switches() {
		for placed < k {
			p := n.FreePort(s)
			if p < 0 || n.AddReflector(s, p) != nil {
				break
			}
			placed++
		}
	}
	return placed
}

// TestWriteMatchesOracleSyntheticNames covers what no generator builds:
// unnamed switches (written as sw<N>), a removed wire, a self-loop cable
// and a non-default radix.
func TestWriteMatchesOracleSyntheticNames(t *testing.T) {
	n := &topology.Network{}
	h := n.AddHost("h0")
	s1 := n.AddSwitch("")
	s2 := n.AddSwitchRadix("", 16)
	s3 := n.AddSwitch("sw9")
	n.MustConnect(h, 0, s1, 3)
	n.MustConnect(s1, 0, s2, 12)
	dead := n.MustConnect(s2, 1, s3, 1)
	n.MustConnect(s3, 4, s3, 5)
	if err := n.RemoveWire(dead); err != nil {
		t.Fatal(err)
	}
	if err := n.AddReflector(s2, 15); err != nil {
		t.Fatal(err)
	}
	text := requireWriteMatchesOracle(t, n, "synthetic")
	for _, want := range []string{"switch sw1\n", "switch sw2 16\n", "reflector sw2 15\n"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("missing %q in\n%s", want, text)
		}
	}
}

// TestWriteAllocs pins Network.Write's allocation count on the 768-host
// leaf/spine fabric the daemon's lifecycle benchmark maps: a count, so the
// host's speed cannot make it flake.
func TestWriteAllocs(t *testing.T) {
	res, err := genspec.Build("fattree2:128x6", rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	n := res.Net
	allocs := testing.AllocsPerRun(5, func() {
		if err := n.Write(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 48 {
		t.Fatalf("Network.Write on fattree2:128x6: %.0f allocs, want at most 48", allocs)
	}
}

// fuzzSeeds is FuzzReadTopology's seed corpus: three generated maps with a
// loopback plug each, and a hand-written file with a comment, a radix, a
// self-loop cable and a plug.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, spec := range []string{"now-c", "mesh:3x3", "fattree2:4x2,3"} {
		res, err := genspec.Build(spec, rand.New(rand.NewSource(1)))
		if err != nil {
			tb.Fatal(err)
		}
		addLoops(res.Net, 1)
		var b bytes.Buffer
		if err := res.Net.Write(&b); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b.Bytes())
	}
	return append(seeds, []byte("# c\nhost a\nswitch s 4\nswitch t\nwire a 0 s 3\nwire s 0 s 1\nreflector t 2\n"))
}

// FuzzReadTopology feeds arbitrary text to ReadFrom. It must never panic,
// and whatever it accepts must render to a fixpoint: reading back what
// Write printed and writing it again gives the same bytes.
func FuzzReadTopology(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := topology.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := n.Write(&first); err != nil {
			t.Fatal(err)
		}
		back, err := topology.ReadFrom(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Write output does not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("not a fixpoint:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// readFromOracle is ReadFrom as it was written before Parse: a
// bufio.Scanner over the lines, strings.TrimSpace and strings.Fields on
// each, and a name map of its own. It is the reference Parse must match:
// the same network, or the same error text.
func readFromOracle(r io.Reader) (*topology.Network, error) {
	n := &topology.Network{}
	byName := make(map[string]topology.NodeID)
	sc := bufio.NewScanner(r)
	lineNo := 0
	lookup := func(name string) (topology.NodeID, error) {
		if id, ok := byName[name]; ok {
			return id, nil
		}
		return topology.None, fmt.Errorf("line %d: unknown node %q", lineNo, name)
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
			var id topology.NodeID
			switch {
			case f[0] == "host":
				id = n.AddHost(f[1])
			case len(f) == 3:
				radix, err := strconv.Atoi(f[2])
				if err != nil || radix < 1 || radix > topology.MaxSwitchRadix {
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

// requireParseMatchesOracle fails unless Parse and ReadFrom both agree
// with the Scanner-based oracle on text: the same error text, or networks
// with the same nodes (id, kind, name, radix), the same wires at the same
// indices, the same plugs and the same Write bytes.
func requireParseMatchesOracle(t *testing.T, text []byte, where string) {
	t.Helper()
	want, wantErr := readFromOracle(bytes.NewReader(text))
	viaReader, readerErr := topology.ReadFrom(bytes.NewReader(text))
	for _, c := range []struct {
		entry string
		got   *topology.Network
		err   error
	}{{"Parse", nil, nil}, {"ReadFrom", viaReader, readerErr}} {
		if c.entry == "Parse" {
			c.got, c.err = topology.Parse(text)
		}
		if fmt.Sprint(c.err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: %s error %v, oracle %v", where, c.entry, c.err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if err := sameNetwork(c.got, want); err != nil {
			t.Fatalf("%s: %s: %v", where, c.entry, err)
		}
	}
}

// sameNetwork reports the first difference between two networks in ids,
// wire indices, plugs or Write bytes.
func sameNetwork(got, want *topology.Network) error {
	if got.NumNodes() != want.NumNodes() || got.NumWireSlots() != want.NumWireSlots() {
		return fmt.Errorf("%d nodes, %d wire slots; oracle %d, %d",
			got.NumNodes(), got.NumWireSlots(), want.NumNodes(), want.NumWireSlots())
	}
	for i := range want.NumNodes() {
		id := topology.NodeID(i)
		if got.KindOf(id) != want.KindOf(id) || got.NameOf(id) != want.NameOf(id) || got.NumPorts(id) != want.NumPorts(id) {
			return fmt.Errorf("node %d is %s %q radix %d; oracle %s %q radix %d", i,
				got.KindOf(id), got.NameOf(id), got.NumPorts(id), want.KindOf(id), want.NameOf(id), want.NumPorts(id))
		}
		if got.Lookup(want.NameOf(id)) != want.Lookup(want.NameOf(id)) {
			return fmt.Errorf("name %q looks up differently", want.NameOf(id))
		}
	}
	for w := range want.NumWireSlots() {
		if got.WireAlive(w) != want.WireAlive(w) || (want.WireAlive(w) && got.WireByIndex(w) != want.WireByIndex(w)) {
			return fmt.Errorf("wire %d differs", w)
		}
	}
	if g, w := fmt.Sprint(got.Reflectors()), fmt.Sprint(want.Reflectors()); g != w {
		return fmt.Errorf("plugs %s; oracle %s", g, w)
	}
	if err := got.Validate(); err != nil {
		return err
	}
	var gb, wb bytes.Buffer
	if err := got.Write(&gb); err != nil {
		return err
	}
	if err := want.Write(&wb); err != nil {
		return err
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		return fmt.Errorf("Write differs:\n%s\nvs oracle\n%s", gb.Bytes(), wb.Bytes())
	}
	return nil
}

// mangle derives malformed and unusual variants of a well-formed text:
// every line cut short in turn, a line dropped, two lines swapped, CRLF
// line ends, tabs, vertical tabs, form feeds and Unicode spaces between
// fields, a stripped header, and a few random byte edits.
func mangle(text []byte, rng *rand.Rand) [][]byte {
	lines := bytes.SplitAfter(text, []byte("\n"))
	var out [][]byte
	join := func(ls [][]byte) []byte { return bytes.Join(ls, nil) }
	for i, l := range lines {
		if len(l) > 2 {
			cut := slices.Clone(lines)
			cut[i] = l[:rng.Intn(len(l)-1)+1]
			out = append(out, join(cut))
		}
	}
	if len(lines) > 2 {
		i := rng.Intn(len(lines))
		out = append(out, join(slices.Delete(slices.Clone(lines), i, i+1)))
		j := rng.Intn(len(lines))
		sw := slices.Clone(lines)
		sw[i], sw[j] = sw[j], sw[i]
		out = append(out, join(sw))
	}
	out = append(out,
		bytes.ReplaceAll(text, []byte("\n"), []byte("\r\n")),
		bytes.ReplaceAll(text, []byte(" "), []byte(" \t ")),
		bytes.ReplaceAll(text, []byte(" "), []byte("\v\f")),
		bytes.ReplaceAll(text, []byte(" "), []byte("\u00a0")),
		bytes.ReplaceAll(text, []byte(" "), []byte("\u2003 ")),
		join(lines[1:]),
		bytes.TrimSuffix(text, []byte("\n")),
	)
	for range 8 {
		b := slices.Clone(text)
		if len(b) > 0 {
			b[rng.Intn(len(b))] = "x 0\n#\t\xff"[rng.Intn(7)]
		}
		out = append(out, b)
	}
	return out
}

// TestParseMatchesOracle reads, through Parse, ReadFrom and the oracle,
// every generator's map under three seeds with loopback plugs, healed maps
// a mapper session exported after link cuts, FuzzReadTopology's seed
// corpus, the mangled variants of all of those, and lines around
// bufio.Scanner's length limit.
func TestParseMatchesOracle(t *testing.T) {
	var texts [][]byte
	write := func(n *topology.Network) {
		var b bytes.Buffer
		if err := n.Write(&b); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, b.Bytes())
	}
	for _, name := range genspec.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			res, err := genspec.Build(genSpecs[name], rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			addLoops(res.Net, 2)
			write(res.Net)
		}
	}
	for _, spec := range []string{"fattree2:8x2", "now-c"} {
		for seed := uint64(1); seed <= 3; seed++ {
			write(healedMap(t, spec, seed))
		}
	}
	texts = append(texts, fuzzSeeds(t)...)
	rng := rand.New(rand.NewSource(1))
	for i, text := range texts {
		requireParseMatchesOracle(t, text, fmt.Sprintf("text %d", i))
		for j, m := range mangle(text, rng) {
			requireParseMatchesOracle(t, m, fmt.Sprintf("text %d variant %d", i, j))
		}
	}
	for _, long := range []int{bufio.MaxScanTokenSize - 2, bufio.MaxScanTokenSize - 1, bufio.MaxScanTokenSize, bufio.MaxScanTokenSize + 1} {
		name := strings.Repeat("h", long-len("host "))
		for _, text := range []string{
			"host " + name, "host " + name + "\n", "host " + name + "\r\n",
			"frobnicate\nhost " + name + "\n", "host a\n#" + name + "\nhost a\n",
		} {
			requireParseMatchesOracle(t, []byte(text), fmt.Sprintf("line of %d bytes", long))
		}
	}
}

// healedMap is the map a mapper session exports for spec after two link
// cuts and a remap: suspect-free here, with the cut wires gone.
func healedMap(t *testing.T, spec string, seed uint64) *topology.Network {
	t.Helper()
	res, err := genspec.Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := res.Net
	h0 := net.Hosts()[0]
	sn := simnet.NewDefault(net)
	sess, err := mapper.NewSession(sn.Endpoint(h0),
		mapper.WithDepth(net.DepthBound(h0)+net.NumSwitches()), mapper.WithConfirm(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Map(); err != nil {
		t.Fatalf("%s seed %d: map: %v", spec, seed, err)
	}
	faults.NewInjector(sn, faults.Generate(net, seed, faults.Profile{Cuts: 2, Protect: h0})).ApplyAll()
	healed, err := sess.Remap()
	if err != nil {
		t.Fatalf("%s seed %d: remap: %v", spec, seed, err)
	}
	return healed.Network
}

// TestParseAllocs pins Parse's allocation count on the 768-host map the
// daemon's lifecycle benchmark commits: the text is copied once and every
// table is sized from the header, so the count does not grow with the
// fabric. The line-by-line reader it replaced made 4 862.
func TestParseAllocs(t *testing.T) {
	res, err := genspec.Build("fattree2:128x6", rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := res.Net.Write(&text); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := topology.Parse(text.Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Fatalf("Parse of fattree2:128x6: %.0f allocs, want at most 24", allocs)
	}
}

// TestBuildAllocs pins genspec.Build's allocation count on the same
// fabric under a seeded port embedding, as sanmapd builds it: names are
// built into one string and every table is sized before the first node,
// so no count here grows with the fabric. Building node by node made
// 8 183.
func TestBuildAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := genspec.Build("fattree2:128x6", rand.New(rand.NewSource(7))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("genspec.Build(fattree2:128x6): %.0f allocs, want at most 32", allocs)
	}
}
