package topology_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"sanmap/internal/genspec"
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

// FuzzReadTopology feeds arbitrary text to ReadFrom. It must never panic,
// and whatever it accepts must render to a fixpoint: reading back what
// Write printed and writing it again gives the same bytes.
func FuzzReadTopology(f *testing.F) {
	for _, spec := range []string{"now-c", "mesh:3x3", "fattree2:4x2,3"} {
		res, err := genspec.Build(spec, rand.New(rand.NewSource(1)))
		if err != nil {
			f.Fatal(err)
		}
		addLoops(res.Net, 1)
		var b bytes.Buffer
		if err := res.Net.Write(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte("# c\nhost a\nswitch s 4\nswitch t\nwire a 0 s 3\nwire s 0 s 1\nreflector t 2\n"))
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
