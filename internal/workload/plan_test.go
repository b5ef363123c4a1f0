package workload

import (
	"bytes"
	"testing"
	"time"

	"sanmap/internal/genspec"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

func planConfig(pat Pattern, seed uint64) PlanConfig {
	return PlanConfig{
		Pattern:  pat,
		Load:     0.3,
		MsgBytes: 512,
		Duration: 300 * time.Microsecond,
		ByteTime: simnet.DefaultTiming().ByteTime,
		Seed:     seed,
	}
}

func planBytes(t *testing.T, net *topology.Network, cfg PlanConfig) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewPlan(net, cfg).Write(net, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPlanDeterministicUnderParallel is the property the load-smoke lane
// rests on: a Plan is a pure function of (host set, PlanConfig), so
// materialising the same plan from many goroutines at once — as `go test
// -parallel` does — must yield byte-identical schedules. Hotspot and
// Permutation are the patterns with global and per-host stochastic choices
// respectively, so they are the ones that would betray any hidden shared
// rng state.
func TestPlanDeterministicUnderParallel(t *testing.T) {
	res, err := genspec.Build("fattree2:8x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	net := res.Net
	for _, pat := range []Pattern{Hotspot, Permutation} {
		pat := pat
		want := planBytes(t, net, planConfig(pat, 42))
		if len(want) == 0 {
			t.Fatalf("%v: empty plan", pat)
		}
		for i := 0; i < 4; i++ {
			i := i
			t.Run(pat.String(), func(t *testing.T) {
				t.Parallel()
				// Each subtest builds on its own topology copy so even
				// host-slice sharing cannot mask an ordering dependence.
				res, err := genspec.Build("fattree2:8x2", nil)
				if err != nil {
					t.Fatal(err)
				}
				got := planBytes(t, res.Net, planConfig(pat, 42))
				if !bytes.Equal(got, want) {
					t.Errorf("replica %d: %v plan differs from reference (%d vs %d bytes)",
						i, pat, len(got), len(want))
				}
			})
		}
	}
}

// TestPlanSeedSensitivity: different seeds must actually move the schedule
// (otherwise determinism tests prove nothing).
func TestPlanSeedSensitivity(t *testing.T) {
	res, err := genspec.Build("fattree2:4x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	a := planBytes(t, res.Net, planConfig(Hotspot, 1))
	b := planBytes(t, res.Net, planConfig(Hotspot, 2))
	if bytes.Equal(a, b) {
		t.Fatal("seeds 1 and 2 produced identical Hotspot plans")
	}
}

// TestPlanMatrixConsistent: the demand matrix must account exactly for the
// scheduled sends.
func TestPlanMatrixConsistent(t *testing.T) {
	res, err := genspec.Build("fattree2:4x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(res.Net, planConfig(Permutation, 7))
	m := p.Matrix()
	var total int64
	for i := range m.Bytes {
		for j := range m.Bytes[i] {
			total += m.Bytes[i][j]
		}
	}
	if want := int64(p.TotalSends()) * int64(p.MsgBytes); total != want {
		t.Fatalf("matrix volume %d, want %d", total, want)
	}
}

// TestMergeOrder: Merge lists every send once, ordered by time, then by host
// index, then by position in the host's schedule, and skips hosts with
// nothing to send.
func TestMergeOrder(t *testing.T) {
	plan := &Plan{
		MsgBytes: 512,
		Hosts:    []topology.NodeID{10, 11, 12, 13},
		Sends: [][]Send{
			{{At: 5, Dst: 11}, {At: 5, Dst: 12}, {At: 9, Dst: 13}},
			{},
			{{At: 0, Dst: 10}, {At: 5, Dst: 13}},
			{{At: 5, Dst: 10}},
		},
	}
	want := []Injection{
		{At: 0, Src: 2, Dst: 10},
		{At: 5, Src: 0, Dst: 11}, {At: 5, Src: 0, Dst: 12}, {At: 5, Src: 2, Dst: 13}, {At: 5, Src: 3, Dst: 10},
		{At: 9, Src: 0, Dst: 13},
	}
	got := plan.Merge()
	if len(got) != len(want) {
		t.Fatalf("merged %d injections, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("injection %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got := (&Plan{Hosts: plan.Hosts, Sends: make([][]Send, 4)}).Merge(); len(got) != 0 {
		t.Errorf("empty plan merged to %v", got)
	}

	res, err := genspec.Build("fattree2:8x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	big := NewPlan(res.Net, planConfig(Uniform, 3))
	merged := big.Merge()
	if len(merged) != big.TotalSends() {
		t.Fatalf("merged %d of %d sends", len(merged), big.TotalSends())
	}
	next := make([]int, len(big.Hosts))
	for i, in := range merged {
		if i > 0 {
			prev := merged[i-1]
			if in.At < prev.At || (in.At == prev.At && in.Src < prev.Src) {
				t.Fatalf("injection %d (%+v) sorts before its predecessor %+v", i, in, prev)
			}
		}
		if s := big.Sends[in.Src][next[in.Src]]; s.At != in.At || s.Dst != in.Dst {
			t.Fatalf("injection %d (%+v) is not host %d's next send %+v", i, in, in.Src, s)
		}
		next[in.Src]++
	}
}
