package loadsim

import (
	"testing"
	"time"

	"sanmap/internal/genspec"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/workload"
)

// saturatedFixture is the 128-host lane's plan (fattree2:32x4, uniform, 0.4
// load, 2.5 ms, seed 1) on an engine whose forward reset fires after 10 µs
// instead of 55 ms: over this short a horizon the queues never grow long
// enough to trip the hardware's reset, so the reset is shortened, as
// TestRunMatchesReferenceRun shortens it, to put the replay in the regime
// a sanload report runs in, where most worms die blocked.
func saturatedFixture(b *testing.B) (*workload.Plan, *Engine) {
	b.Helper()
	res, err := genspec.Build("fattree2:32x4", nil)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := routes.Compute(res.Net, routes.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	timing := simnet.DefaultTiming()
	timing.BlockedPortReset = 10 * time.Microsecond
	plan := workload.NewPlan(res.Net, workload.PlanConfig{
		Pattern: workload.Uniform, Load: 0.4, MsgBytes: 512, Duration: 2500 * time.Microsecond,
		ByteTime: timing.ByteTime, Seed: 1,
	})
	e, err := New(res.Net, tab, timing, plan.MsgBytes)
	if err != nil {
		b.Fatal(err)
	}
	return plan, e
}

// BenchmarkLoadReplaySaturated is Run on the saturated fixture: the merge
// once and the branch-light scan. Gated at 0.9x its reference lane.
func BenchmarkLoadReplaySaturated(b *testing.B) {
	benchSaturated(b, (*Engine).Run)
}

// BenchmarkLoadReplaySaturatedReference is referenceRun, the heap-driven
// replay with the branchy hop walk, on the same input.
func BenchmarkLoadReplaySaturatedReference(b *testing.B) {
	benchSaturated(b, (*Engine).referenceRun)
}

func benchSaturated(b *testing.B, run func(*Engine, *workload.Plan) (*Report, error)) {
	plan, e := saturatedFixture(b)
	var r *Report
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err = run(e, plan); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.Sent), "worms/op")
	b.ReportMetric(float64(r.Blocked), "blocked/op")
}
