package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"sanmap/internal/eventq"
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

// pending is a host's next unmerged send: its time, the host's index and
// the position in that host's schedule.
type pending struct {
	at        time.Duration
	host, seq int32
}

// pendingLess orders by (time, host). The queue never holds two sends of one
// host, so that is a strict total order and the merged schedule a pure
// function of the plan.
func pendingLess(a, b pending) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.host < b.host
}

// referenceMerge is the k-way heap merge Plan.Merge replaced, kept verbatim
// as its oracle: the queue holds each host's next send, and the earliest is
// replaced in place by its successor.
func referenceMerge(p *Plan) []Injection {
	out := make([]Injection, 0, p.TotalSends())
	q := eventq.New(pendingLess)
	q.Reserve(len(p.Hosts))
	for i := range p.Hosts {
		if sends := p.Sends[i]; len(sends) > 0 {
			q.Push(pending{at: sends[0].At, host: int32(i)})
		}
	}
	for q.Len() > 0 {
		v, _ := q.Peek()
		sends := p.Sends[v.host]
		out = append(out, Injection{At: v.at, Src: v.host, Dst: sends[v.seq].Dst})
		if next := v.seq + 1; int(next) < len(sends) {
			q.Set(0, pending{at: sends[next].At, host: v.host, seq: next})
		} else {
			q.Pop()
		}
	}
	return out
}

// mergeCases are the plans Merge is held to referenceMerge on: every
// pattern, every plan loadsim's differential grid draws before spacing it
// (four fabrics, two loads, three seeds), hand-built plans with
// same-nanosecond sends, empty hosts, no sends at all and times that need
// every byte of a key, and random schedules thick with ties.
func mergeCases(t *testing.T) map[string]*Plan {
	t.Helper()
	cases := map[string]*Plan{}
	build := func(gen string) *topology.Network {
		res, err := genspec.Build(gen, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Net
	}
	net := build("fattree2:8x2")
	for _, pat := range []Pattern{Uniform, Hotspot, Permutation} {
		cases[pat.String()] = NewPlan(net, planConfig(pat, 5))
	}
	for _, gen := range []string{"fattree2:16x2,8", "fattree2:8x2", "torus:4x4", "now-c"} {
		net := build(gen)
		for _, load := range []float64{0.4, 0.9} {
			for seed := uint64(1); seed <= 3; seed++ {
				cases[fmt.Sprintf("%s load %.1f seed %d", gen, load, seed)] = NewPlan(net, PlanConfig{
					Pattern: Uniform, Load: load, MsgBytes: 512, Duration: time.Millisecond,
					ByteTime: simnet.DefaultTiming().ByteTime, Seed: seed,
				})
			}
		}
	}
	hosts := []topology.NodeID{10, 11, 12, 13}
	cases["same instant"] = &Plan{Hosts: hosts, Sends: [][]Send{
		{{At: 5, Dst: 11}, {At: 5, Dst: 12}, {At: 9, Dst: 13}},
		{{At: 5, Dst: 10}},
		{{At: 0, Dst: 10}, {At: 5, Dst: 13}, {At: 5, Dst: 11}},
		{{At: 5, Dst: 10}, {At: 9, Dst: 12}},
	}}
	cases["all at one instant"] = &Plan{Hosts: hosts, Sends: [][]Send{
		{{At: 7, Dst: 11}, {At: 7, Dst: 12}}, {}, {{At: 7, Dst: 10}}, {{At: 7, Dst: 10}},
	}}
	cases["empty hosts"] = &Plan{Hosts: hosts, Sends: [][]Send{
		{}, {{At: 3, Dst: 10}, {At: 8, Dst: 12}}, nil, {{At: 1, Dst: 11}},
	}}
	cases["no sends"] = &Plan{Hosts: hosts, Sends: make([][]Send, len(hosts))}
	cases["no hosts"] = &Plan{}
	// Past 2^32 ns needs a fifth byte; from -2^62 to 2^62 needs all eight.
	cases["beyond 2^32"] = &Plan{Hosts: hosts, Sends: [][]Send{
		{{At: 5, Dst: 11}, {At: 1<<32 + 5, Dst: 12}, {At: 1 << 40, Dst: 13}},
		{{At: 1 << 32, Dst: 10}, {At: 1<<32 + 5, Dst: 12}},
		{},
		{{At: 0, Dst: 10}, {At: 1<<33 + 1, Dst: 11}, {At: 1 << 40, Dst: 12}},
	}}
	cases["every byte"] = &Plan{Hosts: hosts, Sends: [][]Send{
		{{At: -1 << 62, Dst: 11}, {At: -5, Dst: 12}, {At: 1 << 62, Dst: 13}},
		{{At: -1 << 62, Dst: 10}, {At: 0, Dst: 12}, {At: 1<<48 + 3, Dst: 12}},
		{{At: -5, Dst: 13}, {At: 1 << 62, Dst: 10}},
		{},
	}}
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 20; c++ {
		p := &Plan{Hosts: hosts, Sends: make([][]Send, len(hosts))}
		span := int64(1) << (4 * (c%15 + 1))
		for i := range p.Sends {
			at := rng.Int63n(span) - span/2
			for k := rng.Intn(50); k > 0; k-- {
				p.Sends[i] = append(p.Sends[i], Send{At: time.Duration(at), Dst: hosts[rng.Intn(len(hosts))]})
				at += rng.Int63n(3) * rng.Int63n(span/16+1)
			}
		}
		cases[fmt.Sprintf("random %d span %d", c, span)] = p
	}
	return cases
}

// TestMergeMatchesReference: the radix sort lists exactly the injections,
// in exactly the order, of the heap merge it replaced.
func TestMergeMatchesReference(t *testing.T) {
	for name, p := range mergeCases(t) {
		got, want := p.Merge(), referenceMerge(p)
		if !slices.Equal(got, want) {
			t.Errorf("%s: Merge differs from the heap merge (%d vs %d injections)", name, len(got), len(want))
		}
	}
}

// serialPlan is NewPlan's draw before hosts were drawn concurrently: every
// stream drained in host order, its slice grown as it fills.
func serialPlan(net *topology.Network, cfg PlanConfig) *Plan {
	p := &Plan{Pattern: cfg.Pattern, Seed: cfg.Seed, MsgBytes: cfg.msgBytes(), Hosts: net.Hosts()}
	p.Sends = make([][]Send, len(p.Hosts))
	for i, st := range newStreams(p.Hosts, cfg) {
		for s := st.next(); s.At < cfg.Duration; s = st.next() {
			p.Sends[i] = append(p.Sends[i], s)
		}
	}
	return p
}

// TestNewPlanMatchesSerialDraw: however many blocks the hosts are drawn in,
// NewPlan's plan is the serial drain's, send for send — on a fabric of 16
// hosts for every pattern, on two hosts, and with no load at all.
func TestNewPlanMatchesSerialDraw(t *testing.T) {
	res, err := genspec.Build("fattree2:8x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	two := &topology.Network{}
	h0, h1, s := two.AddHost("h0"), two.AddHost("h1"), two.AddSwitch("s")
	for _, h := range []topology.NodeID{h0, h1} {
		if _, _, _, err := two.ConnectFree(h, s); err != nil {
			t.Fatal(err)
		}
	}
	idle := planConfig(Uniform, 4)
	idle.Load = 0
	type tc struct {
		name string
		net  *topology.Network
		cfg  PlanConfig
	}
	cases := []tc{{"two hosts", two, planConfig(Permutation, 9)}, {"no load", res.Net, idle}}
	for _, pat := range []Pattern{Uniform, Hotspot, Permutation} {
		cases = append(cases, tc{pat.String(), res.Net, planConfig(pat, 6)})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			got, want := NewPlan(c.net, c.cfg), serialPlan(c.net, c.cfg)
			if got.Pattern != want.Pattern || got.Seed != want.Seed || got.MsgBytes != want.MsgBytes ||
				!slices.Equal(got.Hosts, want.Hosts) || len(got.Sends) != len(want.Sends) {
				t.Fatalf("GOMAXPROCS %d, %s: plan header %+v, want %+v", procs, c.name, got, want)
			}
			for i := range want.Sends {
				if !slices.Equal(got.Sends[i], want.Sends[i]) {
					t.Errorf("GOMAXPROCS %d, %s: host %d draws %d sends, the serial drain %d (or others)",
						procs, c.name, i, len(got.Sends[i]), len(want.Sends[i]))
				}
			}
		}
	}
}

// TestTinyLoadOffersLeast: a gap past the largest Duration saturates, so a
// load just above zero offers at most the send every host draws at time 0,
// never the flood of a gap wrapped negative and clamped to 1 ns.
func TestTinyLoadOffersLeast(t *testing.T) {
	res, err := genspec.Build("fattree2:8x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []Pattern{Uniform, Hotspot, Permutation} {
		cfg := planConfig(pat, 1)
		cfg.Load = 1e-20
		p := NewPlan(res.Net, cfg)
		for i, sends := range p.Sends {
			if len(sends) > 1 {
				t.Errorf("%v: host %d sends %d worms at load 1e-20, want at most one", pat, i, len(sends))
			}
		}
		if p.TotalSends() == 0 {
			t.Errorf("%v: no host sent its time-0 worm", pat)
		}
	}
}
