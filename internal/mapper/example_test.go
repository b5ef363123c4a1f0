package mapper_test

import (
	"fmt"
	"math/rand"

	"sanmap/internal/cluster"
	"sanmap/internal/dot"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Example is the paper's whole pipeline: build a small fat tree, discover
// it with in-band probes from one host, check the map against the network
// (Theorem 1), and compute verified deadlock-free UP*/DOWN* routes from the
// map (§5.5). Ports are cabled at random; the mapper only ever learns
// relative turns.
func Example() {
	net := topology.MustFatTree(topology.FatTreeSpec{
		LeafSwitches: 4, HostsPerLeaf: 3,
		MidSwitches: 2, RootSwitches: 1,
		UplinksPerLeaf: 2, UplinksPerMid: 2,
	}, rand.New(rand.NewSource(42)))
	fmt.Println("actual network:", net)

	h0 := net.Hosts()[0]
	sn := simnet.NewDefault(net) // quiescent Myrinet, circuit collision model
	m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(net.DepthBound(h0)))
	if err != nil {
		fmt.Println("mapping failed:", err)
		return
	}
	fmt.Printf("mapped from %s with %d probes in %v (simulated)\n",
		net.NameOf(h0), m.Stats.Probes.TotalProbes(), m.Stats.Elapsed)
	if err := isomorph.MustEqualCore(m.Network, net); err != nil {
		fmt.Println("verification failed:", err)
		return
	}
	fmt.Println("verified: map is isomorphic to the actual network")
	fmt.Print(dot.ASCII(m.Network))

	tab, err := routes.Compute(m.Network, routes.DefaultConfig())
	if err != nil {
		fmt.Println("route computation failed:", err)
		return
	}
	verified := true
	for _, c := range []struct {
		name string
		err  error
	}{
		{"up*/down*", tab.VerifyUpDown()},
		{"deadlock freedom", tab.VerifyDeadlockFree()},
		{"delivery", tab.VerifyDelivery(m.Network)},
	} {
		verdict := "ok"
		if c.err != nil {
			verdict, verified = c.err.Error(), false
		}
		fmt.Printf("%s: %s\n", c.name, verdict)
	}
	if verified {
		src := m.Network.Hosts()[0]
		dst := m.Network.Hosts()[len(m.Network.Hosts())-1]
		r, _ := tab.Route(src, dst)
		fmt.Printf("routes verified; e.g. %s -> %s takes turns %v\n",
			m.Network.NameOf(src), m.Network.NameOf(dst), r)
	}
	// Output:
	// actual network: network{hosts: 12, switches: 7, links: 24}
	// mapped from Node0 with 479 probes in 406.741156ms (simulated)
	// verified: map is isomorphic to the actual network
	// network: 12 hosts, 7 switches, 24 links
	// hosts: Node0 Node1 Node10 Node11 Node2 Node3 Node4 Node5 Node6 Node7 Node8 Node9
	// level 1:
	//   m0       [0->m2:3 1->Node1:0 2->Node2:0 3->Node0:0 5->m1:0]
	//   m3       [0->Node7:0 3->m1:2 5->m2:7 6->Node6:0 7->Node8:0]
	//   m4       [0->m2:2 3->Node10:0 5->Node11:0 6->Node9:0 7->m1:4]
	//   m6       [0->m1:7 1->Node5:0 2->Node4:0 4->m2:6 5->Node3:0]
	// level 2:
	//   m1       [0->m0:5 2->m3:3 4->m4:7 5->m5:0 6->m5:1 7->m6:0]
	//   m2       [0->m5:4 1->m5:2 2->m4:0 3->m0:0 6->m6:4 7->m3:5]
	// level 3:
	//   m5       [0->m1:5 1->m1:6 2->m2:1 4->m2:0]
	// up*/down*: ok
	// deadlock freedom: ok
	// delivery: ok
	// routes verified; e.g. Node0 -> Node3 takes turns +2+7+5
}

// ExampleMergeMaps is §6's parallel-mapping question on the 100-node
// system: one vantage host in each subcluster (hosts come in subcluster
// order C, A, B) maps only to depth 5, a local region, and MergeMaps fuses
// the three partial views with the host-anchored deduction the single
// mapper uses. The mappers would run concurrently, so the wall time is the
// slowest one's.
func ExampleMergeMaps() {
	sys := cluster.CABConfig(nil)
	net := sys.Net
	hosts := net.Hosts()
	fullDepth := net.DepthBound(sys.Mapper())
	fmt.Printf("full system: %v, full probe depth %d\n", net, fullDepth)
	const localDepth = 5 // deep enough for regions to overlap, far below the full bound
	fmt.Printf("three mappers probe only to depth %d:\n", localDepth)

	var partials []*mapper.Map
	var slowest int64
	for _, h := range []topology.NodeID{hosts[0], hosts[40], hosts[80]} {
		sn := simnet.NewDefault(net)
		m, err := mapper.Run(sn.Endpoint(h), mapper.WithDepth(localDepth))
		if err != nil {
			fmt.Printf("partial map from %s: %v\n", net.NameOf(h), err)
			return
		}
		fmt.Printf("  %-8s sees %v (%d probes, %v)\n",
			net.NameOf(h), m.Network, m.Stats.Probes.TotalProbes(), m.Stats.Elapsed)
		partials = append(partials, m)
		slowest = max(slowest, m.Stats.Elapsed.Milliseconds())
	}
	merged, err := mapper.MergeMaps(partials...)
	if err != nil {
		fmt.Println("merge failed:", err)
		return
	}
	fmt.Printf("merged view: %v (mappers ran concurrently: wall time = slowest = %dms)\n",
		merged.Network, slowest)
	if err := isomorph.MustEqualCore(merged.Network, net); err != nil {
		fmt.Println("merged view incomplete:", err)
		return
	}
	fmt.Println("merged view verified: isomorphic to N-F, assembled from partial maps")

	sn := simnet.NewDefault(net)
	solo, err := mapper.Run(sn.Endpoint(hosts[0]), mapper.WithDepth(fullDepth))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("single mapper for reference: %d probes, %v\n",
		solo.Stats.Probes.TotalProbes(), solo.Stats.Elapsed)
	// Output:
	// full system: network{hosts: 100, switches: 40, links: 193}, full probe depth 13
	// three mappers probe only to depth 5:
	//   Node0    sees network{hosts: 36, switches: 13, links: 63} (694 probes, 530.946042ms)
	//   Node39   sees network{hosts: 35, switches: 15, links: 66} (1037 probes, 796.559604ms)
	//   Node80   sees network{hosts: 31, switches: 16, links: 69} (1559 probes, 1.196455896s)
	// merged view: network{hosts: 100, switches: 40, links: 193} (mappers ran concurrently: wall time = slowest = 1196ms)
	// merged view verified: isomorphic to N-F, assembled from partial maps
	// single mapper for reference: 1369 probes, 1.020475652s
}

// Example_reconfigure is the paper's motivating scenario (§1): networks
// that "automatically adapt to the addition or removal of hosts, switches
// and links". Subcluster C is mapped, then changed three times — a cable
// fails, a new switch with three hosts is cabled in, a host moves — and
// simply re-running the mapper after each change yields a map isomorphic to
// the changed network and routes that verify, with no topology configured
// anywhere.
func Example_reconfigure() {
	sys := cluster.CConfig(rand.New(rand.NewSource(7)))
	net := sys.Net
	h0 := sys.Mapper()
	remap := func(note string) {
		sn := simnet.NewDefault(net)
		m, err := mapper.Run(sn.Endpoint(h0), mapper.WithDepth(net.DepthBound(h0)))
		if err != nil {
			fmt.Printf("%s: mapping: %v\n", note, err)
			return
		}
		tab, err := routes.Compute(m.Network, routes.DefaultConfig())
		if err == nil {
			err = tab.VerifyDeadlockFree()
		}
		if err == nil {
			err = tab.VerifyDelivery(m.Network)
		}
		routesOK := "routes ok"
		if err != nil {
			routesOK = "routes: " + err.Error()
		}
		fmt.Printf("%-38s mapped %v with %4d probes in %v; %s\n",
			note+":", m.Network, m.Stats.Probes.TotalProbes(), m.Stats.Elapsed, routesOK)
		fmt.Printf("%-38s isomorphic to N-F: %v\n", "", isomorph.MustEqualCore(m.Network, net) == nil)
	}
	remap("initial subcluster C")

	// 1. A switch-to-switch cable that is not a bridge fails, so the
	// network stays connected (the paper's C lost one this way: "The third
	// was faulty and removed, but never replaced").
	bridges := map[int]bool{}
	for _, wi := range net.Bridges() {
		bridges[wi] = true
	}
	failed := -1
	net.WiresIndexed(func(wi int, w topology.Wire) {
		if failed < 0 && !bridges[wi] &&
			net.KindOf(w.A.Node) == topology.SwitchNode && net.KindOf(w.B.Node) == topology.SwitchNode {
			failed = wi
		}
	})
	if err := net.RemoveWire(failed); err != nil {
		panic(err)
	}
	remap("after a cable failure")

	// 2. A new leaf switch with three hosts is cabled to two switches with
	// free ports ("leaving room for additional switches ... or hosts").
	leaf := net.AddSwitch("C-Lnew")
	attached := 0
	for _, s := range net.Switches() {
		if s != leaf && net.Degree(s) < topology.SwitchPorts && attached < 2 {
			if _, _, _, err := net.ConnectFree(leaf, s); err == nil {
				attached++
			}
		}
	}
	for i := 0; i < 3; i++ {
		h := net.AddHost(fmt.Sprintf("NewNode%d", i))
		if _, _, _, err := net.ConnectFree(h, leaf); err != nil {
			panic(err)
		}
	}
	remap("after adding a switch + 3 hosts")

	// 3. A host moves to the new switch: unplug, replug.
	mover := net.Hosts()[1]
	if err := net.RemoveWire(net.WireAt(mover, topology.HostPort)); err != nil {
		panic(err)
	}
	if _, _, _, err := net.ConnectFree(mover, leaf); err != nil {
		panic(err)
	}
	remap("after moving a host")
	// Output:
	// initial subcluster C:                  mapped network{hosts: 36, switches: 13, links: 64} with  283 probes in 200.216604ms; routes ok
	//                                        isomorphic to N-F: true
	// after a cable failure:                 mapped network{hosts: 36, switches: 13, links: 63} with  284 probes in 204.200466ms; routes ok
	//                                        isomorphic to N-F: true
	// after adding a switch + 3 hosts:       mapped network{hosts: 39, switches: 14, links: 68} with  300 probes in 214.242978ms; routes ok
	//                                        isomorphic to N-F: true
	// after moving a host:                   mapped network{hosts: 39, switches: 14, links: 68} with  300 probes in 214.24409ms; routes ok
	//                                        isomorphic to N-F: true
}
