package topology

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestAddAndConnect(t *testing.T) {
	n := &Network{}
	h := n.AddHost("h0")
	s := n.AddSwitch("s0")
	if n.KindOf(h) != HostNode || n.KindOf(s) != SwitchNode {
		t.Fatal("kinds wrong")
	}
	if n.NumPorts(h) != 1 || n.NumPorts(s) != SwitchPorts {
		t.Fatal("port counts wrong")
	}
	w, err := n.Connect(h, 0, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.WireAt(h, 0); got != w {
		t.Errorf("WireAt(h,0)=%d want %d", got, w)
	}
	end, ok := n.Neighbor(h, 0)
	if !ok || end.Node != s || end.Port != 3 {
		t.Errorf("Neighbor = %+v", end)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats(); got != (Stats{Hosts: 1, Switches: 1, Links: 1}) {
		t.Errorf("stats %+v", got)
	}
}

func TestConnectErrors(t *testing.T) {
	n := &Network{}
	h := n.AddHost("h0")
	s := n.AddSwitch("s0")
	n.MustConnect(h, 0, s, 0)
	cases := []struct {
		name string
		a    NodeID
		ap   int
		b    NodeID
		bp   int
	}{
		{"occupied host port", h, 0, s, 1},
		{"occupied switch port", s, 0, h, 0},
		{"port out of range high", s, 8, s, 1},
		{"port out of range neg", s, -1, s, 1},
		{"node out of range", 99, 0, s, 1},
		{"same end to itself", s, 1, s, 1},
	}
	for _, c := range cases {
		if _, err := n.Connect(c.a, c.ap, c.b, c.bp); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSelfLoopCable(t *testing.T) {
	n := &Network{}
	s := n.AddSwitch("s0")
	w, err := n.Connect(s, 2, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n.Degree(s) != 2 {
		t.Errorf("self-loop degree %d, want 2", n.Degree(s))
	}
	wire := n.WireByIndex(w)
	if other := wire.Other(End{s, 2}); other != (End{s, 5}) {
		t.Errorf("Other = %+v", other)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveWire(t *testing.T) {
	n := &Network{}
	h := n.AddHost("h0")
	s := n.AddSwitch("s0")
	w := n.MustConnect(h, 0, s, 0)
	if err := n.RemoveWire(w); err != nil {
		t.Fatal(err)
	}
	if n.NumWires() != 0 {
		t.Errorf("NumWires = %d", n.NumWires())
	}
	if n.WireAt(h, 0) != -1 {
		t.Error("port still cabled")
	}
	if err := n.RemoveWire(w); err == nil {
		t.Error("double remove accepted")
	}
	// Port is reusable after removal.
	if _, err := n.Connect(h, 0, s, 4); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n := &Network{}
	n.AddHost("dup")
	n.AddHost("dup")
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := MustStar(3, 2, rng)
	c := n.Clone()
	if c.Stats() != n.Stats() {
		t.Fatal("clone stats differ")
	}
	// Mutate the clone; original must not change.
	sw := c.Switches()[0]
	if p := c.FreePort(sw); p >= 0 {
		c.MustConnect(c.AddHost("extra"), 0, sw, p)
	}
	if c.NumHosts() == n.NumHosts() {
		t.Error("clone mutation affected nothing")
	}
	if n.Lookup("extra") != None {
		t.Error("original gained the clone's host")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHostSwitch(t *testing.T) {
	n := &Network{}
	h := n.AddHost("h0")
	s := n.AddSwitch("s0")
	if _, _, ok := n.HostSwitch(h); ok {
		t.Error("disconnected host reported a switch")
	}
	n.MustConnect(h, 0, s, 6)
	sw, port, ok := n.HostSwitch(h)
	if !ok || sw != s || port != 6 {
		t.Errorf("HostSwitch = %v %d %v", sw, port, ok)
	}
	if _, _, ok := n.HostSwitch(s); ok {
		t.Error("HostSwitch accepted a switch")
	}
}

// TestMappingHost: -mapper may name only a cabled host; anything else is an
// error rather than a mapper id that panics further on. Without an override
// the utility host is taken when cabled, else the first cabled host.
func TestMappingHost(t *testing.T) {
	n := &Network{}
	n.AddHost("x") // never cabled
	h := n.AddHost("h")
	u := n.AddHost("u")
	s := n.AddSwitch("s")
	n.MustConnect(h, 0, s, 1)
	n.MustConnect(u, 0, s, 2)
	for _, c := range []struct {
		utility, override string
		want              NodeID // None: an error
	}{
		{"u", "", u},
		{"", "", h},
		{"x", "", h},
		{"u", "u", u},
		{"u", "h", h},
		{"u", "s", None},
		{"u", "nope", None},
		{"u", "x", None},
	} {
		got, err := n.MappingHost(c.utility, c.override)
		if got != c.want || (err != nil) != (c.want == None) {
			t.Errorf("MappingHost(%q, %q) = %v, %v; want %v", c.utility, c.override, got, err, c.want)
		}
	}
	bare := &Network{}
	bare.AddHost("x")
	if got, err := bare.MappingHost("", ""); err == nil {
		t.Errorf("no cabled host: MappingHost = %v, want an error", got)
	}
}

func TestReflectors(t *testing.T) {
	n := &Network{}
	s := n.AddSwitch("s0")
	h := n.AddHost("h0")
	if err := n.AddReflector(s, 3); err != nil {
		t.Fatal(err)
	}
	if !n.ReflectorAt(s, 3) || n.ReflectorAt(s, 2) {
		t.Error("ReflectorAt wrong")
	}
	if err := n.AddReflector(h, 0); err == nil {
		t.Error("reflector on host accepted")
	}
	if _, err := n.Connect(h, 0, s, 3); err == nil {
		t.Error("cable onto reflectored port accepted")
	}
	if err := n.AddReflector(s, 3); err == nil {
		t.Error("double reflector accepted")
	}
	if got := len(n.Reflectors()); got != 1 {
		t.Errorf("Reflectors count %d", got)
	}
	c := n.Clone()
	if !c.ReflectorAt(s, 3) {
		t.Error("clone lost reflector")
	}
}

func TestFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := MustMesh(3, 2, 2, rng)
	sw := n.Switches()[0]
	if p := n.FreePort(sw); p >= 0 {
		if err := n.AddReflector(sw, p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := n.Write(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	back, err := ReadFrom(strings.NewReader(first))
	if err != nil {
		t.Fatalf("ReadFrom: %v\n%s", err, first)
	}
	if back.Stats() != n.Stats() {
		t.Errorf("round trip stats: %+v vs %+v", back.Stats(), n.Stats())
	}
	if len(back.Reflectors()) != len(n.Reflectors()) {
		t.Error("round trip lost reflectors")
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	// Second serialisation must be byte-identical (stable output).
	var buf2 bytes.Buffer
	if err := back.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if first == "" || buf2.String() != first {
		t.Fatalf("serialisation not stable:\n%s\nvs\n%s", first, buf2.String())
	}
}

func TestReadFromErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive": "frobnicate x",
		"bad wire arity":    "wire a 0 b",
		"unknown node":      "wire a 0 b 0",
		"dup node":          "host a\nhost a",
		"bad port":          "host a\nswitch s\nwire a x s 0",
		"occupied":          "host a\nswitch s\nwire a 0 s 0\nwire a 0 s 1",
	}
	for name, in := range cases {
		if _, err := ReadFrom(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := MustStar(3, 2, rng)
	hosts, _ := n.Filter(func(id NodeID) bool { return n.KindOf(id) == HostNode })
	if hosts.NumSwitches() != 0 || hosts.NumHosts() != n.NumHosts() {
		t.Errorf("filter: %v", hosts)
	}
	if hosts.NumWires() != 0 {
		t.Error("host-only filter kept wires")
	}
	all, back := n.Filter(func(NodeID) bool { return true })
	if all.Stats() != n.Stats() {
		t.Errorf("identity filter changed stats")
	}
	for nid, oid := range back {
		if all.NameOf(nid) != n.NameOf(oid) {
			t.Error("id translation broken")
		}
	}
}
