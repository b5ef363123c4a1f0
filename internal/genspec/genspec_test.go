package genspec

import (
	"math/rand"
	"strings"
	"testing"

	"sanmap/internal/topology"
)

func TestBuildValidSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string]struct{ hosts, switches int }{
		"now-c":       {36, 13},
		"now-ca":      {70, 26},
		"now-cab":     {100, 40},
		"fattree:4x3": {12, 7},
		// Datacenter-scale families (small instances; fabric_test.go has
		// the structural detail).
		"fattree2:12x2":   {24, 17},
		"fattree2:4x2,3":  {8, 7},
		"dragonfly:3,2,1": {24, 12},
		"d3:4,3":          {24, 12},
		"d3:4,3,1":        {12, 12},
		"butterfly:2x3":   {16, 12},
		"random:5,8,2":    {8, 5},
		// A random spanning tree this size once gave a switch a ninth
		// child and panicked.
		"random:3000,1,1": {1, 3000},
		"hypercube:3":     {8, 8},
		"mesh:3x3":        {18, 9},
		"torus:3x3":       {18, 9},
		"ring:4":          {8, 4},
		"star:3":          {6, 4},
		"line:3":          {6, 3},
	}
	// Build finds rows by binary search, so the table must stay strictly
	// sorted by name; every row has a case here.
	covered := map[string]bool{}
	for spec := range cases {
		name, _, _ := strings.Cut(spec, ":")
		covered[name] = true
	}
	names := Names()
	for i, name := range names {
		if i > 0 && names[i-1] >= name {
			t.Errorf("table not strictly sorted: %q before %q", names[i-1], name)
		}
		if !covered[name] {
			t.Errorf("no case builds generator %q", name)
		}
	}
	for spec, want := range cases {
		res, err := Build(spec, rng)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if got := res.Net.NumHosts(); got != want.hosts {
			t.Errorf("%s: %d hosts, want %d", spec, got, want.hosts)
		}
		if got := res.Net.NumSwitches(); got != want.switches {
			t.Errorf("%s: %d switches, want %d", spec, got, want.switches)
		}
		if err := res.Net.Validate(); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
		if strings.HasPrefix(spec, "now-") && res.Utility == "" {
			t.Errorf("%s: missing utility host", spec)
		}
	}
}

func TestBuildInvalidSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, spec := range []string{
		"", "frobnicate", "fattree", "fattree:4", "fattree:4x9",
		"random:1,2", "random:2,99,0", "hypercube:9", "ring:2",
		"torus:2x5", "star:9", "mesh:axb", "line:0", "line:-3",
		// Embedded ':' separators are rejected before the generator parses.
		"fattree:2:3", "now-c:x", "d3:4:3",
		// Datacenter families validate their parameters.
		"fattree2:2x2,8", "dragonfly:200,1,1",
		"d3:4,5", "butterfly:1x3", "butterfly:2x17",
	} {
		if res, err := Build(spec, rng); err == nil {
			t.Errorf("Build(%q) accepted: %v", spec, res.Net)
		}
	}
}

func TestBuildNilRngDeterministic(t *testing.T) {
	a, err := Build("now-cab", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("now-cab", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Net.Stats() != b.Net.Stats() || a.Net.Diameter() != b.Net.Diameter() {
		t.Error("nil-rng builds differ")
	}
}

// TestBuildOversizeFailsFirst: every family refuses a spec beyond
// topology.MaxFabricSwitches (or beyond its port budget) before it builds
// anything — a handful of allocations for the error, not a network —
// including specs whose sizes overflow an int when multiplied or summed.
func TestBuildOversizeFailsFirst(t *testing.T) {
	const huge = "4611686018427387904" // 2^62
	for _, spec := range []string{
		"line:65537", "line:1000000000", "ring:65537", "ring:" + huge,
		"mesh:257x256", "mesh:65537x1", "mesh:" + huge + "x4",
		"torus:257x256", "torus:" + huge + "x" + huge,
		"fattree:131072x2", "fattree:" + huge + "x2",
		"random:65537,1,0", "random:4,17,0", "random:4,4,17", "random:1,1," + huge,
		"fattree2:65535x2", "fattree2:" + huge + "x2",
		"dragonfly:128,1,128", "dragonfly:" + huge + ",1," + huge,
		"d3:128,128,1", "d3:" + huge + ",2,1", "d3:4,2," + huge,
		"butterfly:2x17", "butterfly:" + huge + "x2", "butterfly:64x288230376151711744",
	} {
		var err error
		allocs := testing.AllocsPerRun(1, func() { _, err = Build(spec, nil) })
		if err == nil {
			t.Errorf("Build(%q) accepted", spec)
		} else if allocs > 20 {
			t.Errorf("Build(%q): %.0f allocations before failing (%v)", spec, allocs, err)
		}
	}
}

// FuzzBuild: Build never panics, and any spec it accepts builds a network
// that validates and stays within topology.MaxFabricSwitches.
func FuzzBuild(f *testing.F) {
	for _, g := range table {
		f.Add(g.usage, int64(1))
	}
	for _, spec := range []string{"now-c", "fattree2:12x2", "dragonfly:3,2,1", "d3:4,3,1",
		"random:5,8,2", "torus:3x3", "line:1000000000", "mesh:3x-1", "butterfly:2x3"} {
		f.Add(spec, int64(7))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		res, err := Build(spec, rand.New(rand.NewSource(seed)))
		if err != nil {
			return
		}
		if err := res.Net.Validate(); err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if n := res.Net.NumSwitches(); n > topology.MaxFabricSwitches {
			t.Fatalf("%q: %d switches, over the %d cap", spec, n, topology.MaxFabricSwitches)
		}
	})
}
