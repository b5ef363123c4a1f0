package routes

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sanmap/internal/genspec"
	"sanmap/internal/topology"
)

// TestComputeSameAtAnyGOMAXPROCS: the fill pass splits source rows across
// GOMAXPROCS goroutines, and the table must not depend on how. Every arena
// and the Rng's next draw are compared with the single-goroutine build.
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
		for _, withRng := range []bool{false, true} {
			var want *Table
			var wantDraw int64
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				cfg := DefaultConfig()
				if withRng {
					cfg.Rng = rand.New(rand.NewSource(5))
				}
				tab := computeOn(t, net, cfg)
				var draw int64
				if withRng {
					draw = cfg.Rng.Int63()
				}
				if want == nil {
					want, wantDraw = tab, draw
					continue
				}
				if !slices.Equal(tab.off, want.off) || !slices.Equal(tab.wires, want.wires) ||
					!slices.Equal(tab.turns, want.turns) || draw != wantDraw {
					t.Fatalf("%s (Rng %v): GOMAXPROCS %d builds a different table or leaves the Rng elsewhere than GOMAXPROCS 1", name, withRng, procs)
				}
			}
		}
	}
}
