package election_test

import (
	"fmt"
	"math/rand"

	"sanmap/internal/cluster"
	"sanmap/internal/election"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
)

// ExampleRun is the mapping system's leaderless mode (§4.2) beside the
// master/slave mode on subcluster C. Every host starts a mapper, and a host
// that hears from a higher interface address passivates; five address draws
// give five winners, each with a map isomorphic to N−F. The election's cost
// over the master is the probe storm before passivation and the winner's
// possibly worse vantage point.
func ExampleRun() {
	sys := cluster.CConfig(nil)
	net := sys.Net
	depth := net.DepthBound(sys.Mapper())

	sn := simnet.NewDefault(net)
	m, err := mapper.Run(sn.Endpoint(sys.Mapper()), mapper.WithDepth(depth))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("master/slave: %s maps %v in %v\n",
		net.NameOf(sys.Mapper()), m.Network, m.Stats.Elapsed)

	fmt.Println("\nelection mode (all 36 hosts map concurrently):")
	for seed := int64(1); seed <= 5; seed++ {
		res, err := election.Run(net, election.Config{
			Model:  simnet.CircuitModel,
			Timing: simnet.DefaultTiming(),
			Mapper: mapper.DefaultConfig(depth),
			Rng:    rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		if err := isomorph.MustEqualCore(res.Map.Network, net); err != nil {
			fmt.Printf("  draw %d: winner's map wrong: %v\n", seed, err)
			continue
		}
		fmt.Printf("  draw %d: winner %-8s finished in %v; %d mappers passivated, %d completed; %d probes total\n",
			seed, res.Winner, res.Elapsed, res.Passivated, res.Completed,
			res.Probes.TotalProbes())
	}
	// Output:
	// master/slave: UtilC maps network{hosts: 36, switches: 13, links: 64} in 241.98029ms
	//
	// election mode (all 36 hosts map concurrently):
	//   draw 1: winner Node8    finished in 310.86246ms; 35 mappers passivated, 1 completed; 1466 probes total
	//   draw 2: winner Node16   finished in 307.345182ms; 35 mappers passivated, 1 completed; 1424 probes total
	//   draw 3: winner Node28   finished in 316.604125ms; 35 mappers passivated, 1 completed; 1505 probes total
	//   draw 4: winner Node31   finished in 302.741279ms; 35 mappers passivated, 1 completed; 1528 probes total
	//   draw 5: winner Node14   finished in 300.465775ms; 35 mappers passivated, 1 completed; 1539 probes total
}
