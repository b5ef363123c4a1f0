// Crosstraffic: the paper's open problem (§6) — "the accurate mapping of
// system area networks in the presence of application cross-traffic". The
// example maps the NOW subcluster C while every host streams worms along
// deadlock-free routes at increasing offered loads, and reports how map
// accuracy and mapping time respond. The paper reports "some evidence that
// the algorithm can oftentimes correctly map the network even in the face
// of heavy application cross-traffic" (§7) — the sweep shows where that
// stops being true.
package main

import (
	"fmt"
	"time"

	"sanmap/internal/cluster"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
	"sanmap/internal/workload"
)

func main() {
	sys := cluster.CConfig(nil)
	net := sys.Net
	h0 := sys.Mapper()
	depth := net.DepthBound(h0)
	core, _ := net.Core()

	fmt.Println("mapping subcluster C under uniform cross-traffic")
	fmt.Printf("%-8s %-10s %-10s %-12s %s\n", "load", "accuracy", "traffic", "map time", "notes")
	for _, load := range []float64{0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.35, 0.45} {
		m, tstats, took, err := workload.MapUnderTraffic(net, h0,
			simnet.CircuitModel, simnet.DefaultTiming(),
			mapper.DefaultConfig(depth), workload.PlanConfig{
				Pattern:  workload.Uniform,
				Load:     load,
				MsgBytes: 4096,
				Seed:     uint64(load*1000) + 1,
			})
		if err != nil {
			fmt.Printf("%-8.2f %-10s %-10s %-12v mapping failed: %v\n",
				load, "0.00", "-", took.Round(time.Millisecond), err)
			continue
		}
		sim := isomorph.Compare(m.Network, core)
		notes := "exact map"
		if !sim.Isomorphic {
			notes = fmt.Sprintf("hosts %.0f%%, switches x%.2f, links x%.2f",
				100*sim.HostRecall, sim.SwitchRatio, sim.LinkRatio)
		}
		delivered := "-"
		if tstats.Sent > 0 {
			delivered = fmt.Sprintf("%.0f%% ok", 100*float64(tstats.Delivered)/float64(tstats.Sent))
		}
		fmt.Printf("%-8.2f %-10.2f %-10s %-12v %s\n",
			load, sim.Score(), delivered, took.Round(time.Millisecond), notes)
	}
	fmt.Println("\naccuracy 1.00 = isomorphic to N-F; traffic = worms delivered vs sent")
	fmt.Println("load is offered payload per host as a fraction of link bandwidth; heavier load")
	fmt.Println("costs mapping time first (blocked probes retry as timeouts), and past about a")
	fmt.Println("third of the bandwidth probes die often enough to corrupt the map itself")
}
