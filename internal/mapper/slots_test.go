package mapper

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSlotListMatchesMapOracle drives random file/at sequences on two
// Vertices of one Model, which share its slot chunks — negative, zero,
// in-radix, out-of-radix and extreme indices, each repeated — against a
// map from index to edges per vertex whose sorted keys are the walk order:
// every look-up returns the same edges in the same order, and walking
// v.slots visits exactly the map's keys in ascending order with the same
// edges at each, the first held inline and the rest in its list.
func TestSlotListMatchesMapOracle(t *testing.T) {
	extremes := []int{math.MinInt, -1 << 40, -9, -8, -7, -1, 0, 1, 7, 8, 9, 300, 1 << 40, math.MaxInt}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newModel()
		verts := []*Vertex{{}, {}}
		oracles := []map[int][]*Edge{{}, {}}
		for op := 0; op < 300; op++ {
			which := rng.Intn(2)
			v, oracle := verts[which], oracles[which]
			idx := rng.Intn(41) - 20
			if rng.Intn(2) == 0 {
				idx = extremes[rng.Intn(len(extremes))]
			}
			if rng.Intn(3) > 0 {
				e := &Edge{a: v, ai: idx}
				m.file(v, idx, e)
				oracle[idx] = append(oracle[idx], e)
			} else if got, want := slices.Collect(v.at(idx)), oracle[idx]; !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: at(%d) = %v, oracle %v", seed, op, idx, got, want)
			}
			if op%50 != 49 {
				continue
			}
			for which, v := range verts {
				oracle := oracles[which]
				keys := slices.Sorted(maps.Keys(oracle))
				if len(v.slots) != len(keys) {
					t.Fatalf("seed %d op %d: %d slots, oracle %d", seed, op, len(v.slots), len(keys))
				}
				for k, sl := range v.slots {
					got := append([]*Edge{sl.edge}, sl.more...)
					if sl.idx != keys[k] || !slices.Equal(got, oracle[keys[k]]) {
						t.Fatalf("seed %d op %d: walk step %d is slot %d %v, oracle %d %v",
							seed, op, k, sl.idx, got, keys[k], oracle[keys[k]])
					}
				}
			}
		}
	}
}
