package experiments

import (
	"fmt"
	"strings"
	"time"

	"sanmap/internal/cluster"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
	"sanmap/internal/workload"
)

// CrossTrafficRow is one offered load: the map's similarity to N−F, the
// traffic's delivery counts and the virtual mapping time. Err is set when
// the mapper returned no map; the row then scores 0 with no traffic.
type CrossTrafficRow struct {
	Load    float64
	Sim     isomorph.Similarity
	Traffic workload.Stats
	Took    time.Duration
	Err     error
}

// CrossTrafficSweep is §6's open problem, "the accurate mapping of system
// area networks in the presence of application cross-traffic": subcluster C
// is mapped while every host streams uniform 4096-byte worms along
// deadlock-free routes, one load per trial through Sweep. Load L seeds its
// traffic with uint64(L*1000)+1, so its row is the same in any sweep and at
// any GOMAXPROCS. A failed map is a row, not an error.
func CrossTrafficSweep(loads []float64) []CrossTrafficRow {
	rows, _ := Sweep(len(loads), func(trial int) (CrossTrafficRow, error) {
		sys := cluster.CConfig(nil)
		net, h0, load := sys.Net, sys.Mapper(), loads[trial]
		m, traffic, took, err := workload.MapUnderTraffic(net, h0,
			simnet.CircuitModel, simnet.DefaultTiming(),
			mapper.DefaultConfig(net.DepthBound(h0)), workload.PlanConfig{
				Pattern: workload.Uniform, Load: load, MsgBytes: 4096, Seed: uint64(load*1000) + 1,
			})
		row := CrossTrafficRow{Load: load, Took: took, Err: err}
		if err == nil {
			core, _ := net.Core()
			row.Sim, row.Traffic = isomorph.Compare(m.Network, core), *traffic
		}
		return row, nil
	})
	return rows
}

// FormatCrossTraffic renders the cross-traffic table.
func FormatCrossTraffic(rows []CrossTrafficRow) string {
	var b strings.Builder
	b.WriteString("mapping subcluster C under uniform cross-traffic\n")
	fmt.Fprintf(&b, "%-8s %-10s %-10s %-12s %s\n", "load", "accuracy", "traffic", "map time", "notes")
	for _, r := range rows {
		notes := "exact map"
		switch {
		case r.Err != nil:
			notes = "mapping failed: " + r.Err.Error()
		case !r.Sim.Isomorphic:
			notes = fmt.Sprintf("hosts %.0f%%, switches x%.2f, links x%.2f",
				100*r.Sim.HostRecall, r.Sim.SwitchRatio, r.Sim.LinkRatio)
		}
		delivered := "-"
		if r.Traffic.Sent > 0 {
			delivered = fmt.Sprintf("%.0f%% ok", 100*float64(r.Traffic.Delivered)/float64(r.Traffic.Sent))
		}
		fmt.Fprintf(&b, "%-8.2f %-10.2f %-10s %-12v %s\n",
			r.Load, r.Sim.Score(), delivered, r.Took.Round(time.Millisecond), notes)
	}
	b.WriteString(`
accuracy 1.00 = isomorphic to N-F; traffic = worms delivered vs sent
load is offered payload per host as a fraction of link bandwidth; heavier load
costs mapping time first (a probe a worm kills is a miss: it costs its timeout
and is believed), and past about a third of the bandwidth those misses come
often enough to corrupt the map itself
`)
	return b.String()
}
