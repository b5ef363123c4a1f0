package topology

import (
	"bytes"
	"testing"
)

func TestFatTree2Structure(t *testing.T) {
	net := MustFatTree2(FatTree2Spec{LeafSwitches: 12, HostsPerLeaf: 2}, nil)
	// Auto spine count for 12 leaves is ceil(sqrt(24)) = 5.
	if got, want := net.Stats(), (Stats{Hosts: 24, Switches: 17, Links: 48}); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if !net.IsConnected() {
		t.Fatal("fat-tree is disconnected")
	}
	// Leaves stay radix-8, so they bound the port count here.
	if got := net.MaxPorts(); got != SwitchPorts {
		t.Fatalf("MaxPorts = %d, want %d", got, SwitchPorts)
	}
	// Host to host in at most six wires once every spine pair is covered
	// (12 leaves cycle through all C(5,2)=10 pairs).
	if d := net.Diameter(); d > 6 {
		t.Fatalf("diameter %d > 6", d)
	}
	// A fixed spine count is honoured exactly.
	fixed := MustFatTree2(FatTree2Spec{LeafSwitches: 4, HostsPerLeaf: 2, Spines: 3}, nil)
	if got, want := fixed.Stats(), (Stats{Hosts: 8, Switches: 7, Links: 16}); got != want {
		t.Fatalf("fixed-spine stats %+v, want %+v", got, want)
	}
}

func TestDragonflyStructure(t *testing.T) {
	// a=3, p=2, h=1: 4 complete groups of 3 switches, radix 2+2+1 = 5.
	net := MustDragonfly(3, 2, 1, nil)
	// 24 host links + 4*C(3,2) intra + C(4,2) global = 42.
	if got, want := net.Stats(), (Stats{Hosts: 24, Switches: 12, Links: 42}); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if !net.IsConnected() {
		t.Fatal("dragonfly is disconnected")
	}
	if got := net.MaxPorts(); got != 5 {
		t.Fatalf("MaxPorts = %d, want 5", got)
	}
	// Switch-to-switch is at most intra + global + intra = 3 wires.
	if d := net.Diameter(); d > 5 {
		t.Fatalf("diameter %d > 5", d)
	}
}

func TestSwappedDragonflyStructure(t *testing.T) {
	// D3(4,3) with one host per switch: radix 4+1 = 5.
	net := MustSwappedDragonfly(4, 3, 1, nil)
	// 12 host links + 3*C(4,2) intra + C(3,2) swap = 33.
	if got, want := net.Stats(), (Stats{Hosts: 12, Switches: 12, Links: 33}); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if !net.IsConnected() {
		t.Fatal("swapped dragonfly is disconnected")
	}
	if got := net.MaxPorts(); got != 5 {
		t.Fatalf("MaxPorts = %d, want 5", got)
	}
	// The family's point: switch diameter 3, so host-host is at most 5.
	if d := net.Diameter(); d > 5 {
		t.Fatalf("diameter %d > 5", d)
	}
	// M can grow without rewiring: D3(4,1) is a single complete group.
	small := MustSwappedDragonfly(4, 1, 1, nil)
	if got, want := small.Stats(), (Stats{Hosts: 4, Switches: 4, Links: 10}); got != want {
		t.Fatalf("D3(4,1) stats %+v, want %+v", got, want)
	}
}

func TestButterflyStructure(t *testing.T) {
	// 2-ary 3-fly: 3 stages of 2^2 = 4 radix-4 switches, hosts on the
	// first and last stages.
	net := MustButterfly(2, 3, nil)
	// 16 host links + 2 stage gaps * 4 switches * 2 links = 32.
	if got, want := net.Stats(), (Stats{Hosts: 16, Switches: 12, Links: 32}); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if !net.IsConnected() {
		t.Fatal("butterfly is disconnected")
	}
	if got := net.MaxPorts(); got != 4 {
		t.Fatalf("MaxPorts = %d, want 4", got)
	}
	// Input-side to input-side worst case is 2*(stages-1) switch hops.
	if d := net.Diameter(); d > 2*(3-1)+2 {
		t.Fatalf("diameter %d > %d", d, 2*(3-1)+2)
	}
}

func TestFabricErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"fattree2 no leaves", errOf(FatTree2(FatTree2Spec{LeafSwitches: 0, HostsPerLeaf: 1}, nil))},
		{"fattree2 too many hosts", errOf(FatTree2(FatTree2Spec{LeafSwitches: 4, HostsPerLeaf: SwitchPorts - 1}, nil))},
		{"fattree2 unreachable spines", errOf(FatTree2(FatTree2Spec{LeafSwitches: 2, HostsPerLeaf: 1, Spines: 8}, nil))},
		{"dragonfly radix", errOf(Dragonfly(MaxSwitchRadix, 1, 1, nil))},
		{"dragonfly zero hosts", errOf(Dragonfly(3, 0, 1, nil))},
		{"d3 m>k", errOf(SwappedDragonfly(4, 5, 1, nil))},
		{"d3 radix", errOf(SwappedDragonfly(MaxSwitchRadix, 2, 1, nil))},
		{"butterfly arity", errOf(Butterfly(1, 3, nil))},
		{"butterfly cap", errOf(Butterfly(2, 17, nil))},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func errOf(_ *Network, err error) error { return err }

// TestFabricRoundTrip is the satellite property test: rendering a large
// generated fabric, reading it back, and rendering again must produce
// byte-identical text, and the reread network must agree on the structural
// summary. This is what lets 1k-switch maps live on disk as fixtures.
func TestFabricRoundTrip(t *testing.T) {
	fabrics := []struct {
		name string
		net  *Network
	}{
		{"fattree2-1k", MustFatTree2(FatTree2Spec{LeafSwitches: 960, HostsPerLeaf: 1}, nil)},
		{"dragonfly-264", MustDragonfly(8, 1, 4, nil)},
		{"d3-1k", MustSwappedDragonfly(32, 32, 1, nil)},
		{"butterfly-1280", MustButterfly(4, 5, nil)},
	}
	for _, f := range fabrics {
		var first bytes.Buffer
		if err := f.net.Write(&first); err != nil {
			t.Fatalf("%s: write: %v", f.name, err)
		}
		back, err := ReadFrom(&first)
		if err != nil {
			t.Fatalf("%s: reread: %v", f.name, err)
		}
		var second bytes.Buffer
		if err := back.Write(&second); err != nil {
			t.Fatalf("%s: rewrite: %v", f.name, err)
		}
		var again bytes.Buffer
		if err := f.net.Write(&again); err != nil {
			t.Fatalf("%s: rerender: %v", f.name, err)
		}
		if !bytes.Equal(again.Bytes(), second.Bytes()) {
			t.Fatalf("%s: re-render differs after a read/write cycle", f.name)
		}
		if got, want := back.Stats(), f.net.Stats(); got != want {
			t.Fatalf("%s: reread stats %+v, want %+v", f.name, got, want)
		}
		if got, want := back.MaxPorts(), f.net.MaxPorts(); got != want {
			t.Fatalf("%s: reread MaxPorts %d, want %d", f.name, got, want)
		}
	}
}

// TestIndexZeroAlloc gates the CSR arena contract: after the index is
// built, the core traversals must not allocate. These mirror the
// //sanlint:hotpath annotations on the Index methods with a runtime check.
// A -race build still runs every traversal but asserts no count: the
// race detector drops the index's pooled scratch on purpose.
func TestIndexZeroAlloc(t *testing.T) {
	net := MustFatTree2(FatTree2Spec{LeafSwitches: 60, HostsPerLeaf: 2}, nil)
	ix := net.Index()
	dist := make([]int32, ix.NumNodes())
	label := make([]int32, ix.NumNodes())
	bridges := ix.BridgesInto(nil) // sized once; reused below
	checks := []struct {
		name string
		runs int
		f    func()
	}{
		{"BFSInto", 20, func() { ix.BFSInto(0, dist) }},
		{"ComponentsInto", 20, func() { ix.ComponentsInto(label) }},
		{"BridgesInto", 20, func() { bridges = ix.BridgesInto(bridges[:0]) }},
		{"Eccentricity", 20, func() { _ = ix.Eccentricity(0) }},
		{"Diameter", 2, func() { _ = ix.Diameter() }},
	}
	for _, c := range checks {
		c.f() // warm up
		if n := testing.AllocsPerRun(c.runs, c.f); n != 0 && !raceEnabled {
			t.Errorf("%s: %.1f allocs per run, want 0", c.name, n)
		}
	}
}
