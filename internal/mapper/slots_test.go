package mapper

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSlotListMatchesMapOracle drives random file/at sequences on one
// Vertex — negative, zero, in-radix, out-of-radix and extreme indices,
// each repeated — against a map from index to edges whose sorted keys are
// the walk order: every look-up returns the same edges in the same order,
// and walking v.slots visits exactly the map's keys in ascending order
// with the same edges at each.
func TestSlotListMatchesMapOracle(t *testing.T) {
	extremes := []int{math.MinInt, -1 << 40, -9, -8, -7, -1, 0, 1, 7, 8, 9, 300, 1 << 40, math.MaxInt}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := &Vertex{}
		oracle := make(map[int][]*Edge)
		for op := 0; op < 300; op++ {
			idx := rng.Intn(41) - 20
			if rng.Intn(2) == 0 {
				idx = extremes[rng.Intn(len(extremes))]
			}
			if rng.Intn(3) > 0 {
				e := &Edge{a: v, ai: idx}
				v.file(idx, e)
				oracle[idx] = append(oracle[idx], e)
			} else if got, want := v.at(idx), oracle[idx]; !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: at(%d) = %v, oracle %v", seed, op, idx, got, want)
			}
			if op%50 != 49 {
				continue
			}
			keys := make([]int, 0, len(oracle))
			for idx := range oracle {
				keys = append(keys, idx)
			}
			slices.Sort(keys)
			if len(v.slots) != len(keys) {
				t.Fatalf("seed %d op %d: %d slots, oracle %d", seed, op, len(v.slots), len(keys))
			}
			for k, sl := range v.slots {
				if sl.idx != keys[k] || !slices.Equal(sl.edges, oracle[keys[k]]) {
					t.Fatalf("seed %d op %d: walk step %d is slot %d %v, oracle %d %v",
						seed, op, k, sl.idx, sl.edges, keys[k], oracle[keys[k]])
				}
			}
		}
	}
}
