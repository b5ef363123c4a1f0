package experiments

import "testing"

// TestChaosSweepGolden pins the chaos experiment's qualitative claims under
// fixed seeds: the incremental heal always reconstructs the surviving core,
// costs a fraction of either from-scratch remap, and the whole sweep is
// deterministic at any GOMAXPROCS (the `make chaos` CI lane).
func TestChaosSweepGolden(t *testing.T) {
	seeds := []uint64{1, 2}
	rows, par := atProcs(t, func() ([]ChaosRow, error) { return ChaosSweep(seeds) })
	if len(rows) == 0 {
		t.Fatal("empty sweep")
	}
	for _, r := range rows {
		if r.Seeds != len(seeds) {
			t.Fatalf("%s: ran %d seeds, want %d", r.Label, r.Seeds, len(seeds))
		}
		// The headline: under every fault load the self-healing pipeline
		// reconstructs the surviving core exactly, never panics or hangs.
		if r.HealIso != r.Seeds {
			t.Errorf("%s: healed map not isomorphic to surviving core in %d/%d runs",
				r.Label, r.Seeds-r.HealIso, r.Seeds)
		}
		if r.HealScore < 1 {
			t.Errorf("%s: heal accuracy %.3f < 1", r.Label, r.HealScore)
		}
		// §5: updating an existing map beats mapping from scratch — by a
		// wide margin, for both from-scratch mappers.
		if r.HealProbes*2 >= r.FullProbes {
			t.Errorf("%s: heal (%.1f probes) not measurably cheaper than full berkeley remap (%.1f)",
				r.Label, r.HealProbes, r.FullProbes)
		}
		if r.HealProbes*2 >= r.MyriProbes {
			t.Errorf("%s: heal (%.1f probes) not measurably cheaper than myricom remap (%.1f)",
				r.Label, r.HealProbes, r.MyriProbes)
		}
	}

	// Determinism across GOMAXPROCS: the parallel sweep must render
	// byte-identically to the serial one.
	if FormatChaos(rows) != FormatChaos(par) {
		t.Errorf("chaos sweep not deterministic across GOMAXPROCS:\nserial:\n%s\nparallel:\n%s",
			FormatChaos(rows), FormatChaos(par))
	}
}
