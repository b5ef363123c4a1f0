package experiments

import (
	"testing"

	"sanmap/internal/cluster"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
	"sanmap/internal/workload"
)

// TestCrossTrafficResultFlags maps subcluster C at each load of sanexp's
// cross-traffic sweep, with the sweep's seeds, and logs the session's own
// degradation report (Confidence, Partial, Suspect) beside the accuracy the
// sweep prints, to show whether a wrong map under load is flagged or
// silent. An exact map must also be a clean result.
func TestCrossTrafficResultFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("maps C eight times under cross-traffic")
	}
	loads := []float64{0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.35, 0.45}
	type row struct {
		score, conf float64
		partial     bool
		suspects    int
	}
	rows, err := Sweep(len(loads), func(i int) (row, error) {
		sys := cluster.CConfig(nil)
		net, h0 := sys.Net, sys.Mapper()
		res, _, _, err := workload.MapUnderTraffic(net, h0, simnet.CircuitModel, simnet.DefaultTiming(),
			workload.PlanConfig{Pattern: workload.Uniform, Load: loads[i], MsgBytes: 4096, Seed: uint64(loads[i]*1000) + 1},
			mapper.WithDepth(net.DepthBound(h0)))
		if err != nil {
			return row{}, err
		}
		core, _ := net.Core()
		return row{isomorph.Compare(res.Network, core).Score(), res.Confidence, res.Partial, len(res.Suspect)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		t.Logf("load %.2f: accuracy %.2f confidence %.3f partial %v suspects %d",
			loads[i], r.score, r.conf, r.partial, r.suspects)
		if r.score == 1 && (r.conf != 1 || r.partial || r.suspects != 0) {
			t.Errorf("load %.2f: exact map reported degraded (confidence %v, partial %v, %d suspects)",
				loads[i], r.conf, r.partial, r.suspects)
		}
	}
}
