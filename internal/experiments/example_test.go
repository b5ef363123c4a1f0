package experiments_test

import (
	"fmt"

	"sanmap/internal/experiments"
)

// ExampleCrossTrafficSweep pins two rows of the cross-traffic figure, both
// below the knee: the map stays exact and every worm is delivered, and the
// heavier load already costs mapping time. TestMapUnderTrafficDigest in
// internal/workload pins the knee itself.
func ExampleCrossTrafficSweep() {
	fmt.Print(experiments.FormatCrossTraffic(experiments.CrossTrafficSweep([]float64{0.1, 0.3})))
	// Output:
	// mapping subcluster C under uniform cross-traffic
	// load     accuracy   traffic    map time     notes
	// 0.10     1.00       100% ok    256ms        exact map
	// 0.30     1.00       100% ok    335ms        exact map
	//
	// accuracy 1.00 = isomorphic to N-F; traffic = worms delivered vs sent
	// load is offered payload per host as a fraction of link bandwidth; heavier load
	// costs mapping time first (a probe a worm kills is a miss: it costs its timeout
	// and is believed), and past about a third of the bandwidth those misses come
	// often enough to corrupt the map itself
}
