package wormsim_test

import (
	"fmt"
	"math/rand"

	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
	"sanmap/internal/wormsim"
)

// permutations runs every shifted permutation of the hosts over tab, one
// all-at-once injection per shift, and reports the worms delivered and
// destroyed by the hardware's deadlock break.
func permutations(net *topology.Network, tab *routes.Table, label string) {
	hosts := net.Hosts()
	totalDead, totalDelivered, cycles := 0, 0, 0
	for shift := 1; shift < len(hosts); shift++ {
		s := wormsim.New(net, simnet.DefaultTiming())
		for i, src := range hosts {
			dst := hosts[(i+shift)%len(hosts)]
			route, ok := tab.Route(src, dst)
			if !ok {
				fmt.Printf("no route %s -> %s\n", net.NameOf(src), net.NameOf(dst))
				return
			}
			if err := s.Inject(0, src, route); err != nil {
				fmt.Println(err)
				return
			}
		}
		st := s.Run()
		totalDead += st.Deadlocked
		totalDelivered += st.Delivered
		cycles += st.CyclesBroken
	}
	verdict := "no deadlocks"
	if totalDead > 0 {
		verdict = fmt.Sprintf("%d worms destroyed breaking %d circular waits", totalDead, cycles)
	}
	fmt.Printf("%-16s delivered %4d worms, %s\n", label+":", totalDelivered, verdict)
}

// Example is why the paper computes UP*/DOWN* routes from its maps instead
// of plain shortest paths (§5.5). Under wormhole switching a message holds
// every link it has acquired while it waits for the next one, so routes
// whose channel-dependency graph has a cycle really deadlock. All 15
// permutations on a 4x4 torus run twice, with shortest-path routes and with
// UP*/DOWN* routes on the same network; the static verdicts and the
// simulated circular waits agree (Dally-Seitz).
func Example() {
	net := topology.MustTorus(4, 4, 1, rand.New(rand.NewSource(1)))
	fmt.Printf("permutation traffic on a 4x4 torus (%v), all %d shifts\n\n",
		net, net.NumHosts()-1)

	naive, err := routes.ShortestPaths(net)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := naive.VerifyDeadlockFree(); err != nil {
		fmt.Println("shortest paths: channel-dependency graph HAS a cycle — deadlock possible")
	}
	permutations(net, naive, "shortest paths")

	safe, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := safe.VerifyDeadlockFree(); err == nil {
		fmt.Println("\nup*/down*: channel-dependency graph verified acyclic — deadlock impossible")
	}
	permutations(net, safe, "up*/down*")
	// Output:
	// permutation traffic on a 4x4 torus (network{hosts: 16, switches: 16, links: 48}), all 15 shifts
	//
	// shortest paths: channel-dependency graph HAS a cycle — deadlock possible
	// shortest paths:  delivered  237 worms, 3 worms destroyed breaking 3 circular waits
	//
	// up*/down*: channel-dependency graph verified acyclic — deadlock impossible
	// up*/down*:       delivered  240 worms, no deadlocks
}
