package routes

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sanmap/internal/genspec"
	"sanmap/internal/topology"
)

// TestComputeSameAtAnyGOMAXPROCS: Compute builds serially, and the table
// must not depend on GOMAXPROCS — a guard against a parallel fill coming
// back without byte-identical output. The offsets and the turn arena are
// compared with the GOMAXPROCS 1 build.
func TestComputeSameAtAnyGOMAXPROCS(t *testing.T) {
	nets := map[string]*topology.Network{}
	for _, spec := range []string{"fattree2:32x4", "now-cab"} {
		res, err := genspec.Build(spec, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		nets[spec] = res.Net
	}
	_, healed := healedMap(t, "dragonfly:2,2,2", 2)
	nets["healed dragonfly:2,2,2"] = healed.Network

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, net := range nets {
		var want *Table
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			tab := computeOn(t, net, DefaultConfig())
			if want == nil {
				want = tab
				continue
			}
			if !slices.Equal(tab.off, want.off) || !slices.Equal(tab.turns, want.turns) {
				t.Fatalf("%s: GOMAXPROCS %d builds a different table than GOMAXPROCS 1", name, procs)
			}
		}
	}
}
