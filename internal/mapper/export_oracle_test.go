package mapper

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sanmap/internal/faults"
	"sanmap/internal/genspec"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// oracleExportModel is the strict exporter this package shipped until the
// run paths were unified, kept verbatim as the reference for export: it
// fails on the first deduction the network rejects instead of reporting it
// (the "legacy" strict run and MergeMaps path, Config.SelfHeal off, used it;
// sessions used exportTolerant, which export now is).
func oracleExportModel(model *Model, localHost string) (*topology.Network, topology.NodeID, error) {
	net := &topology.Network{}
	ids := make(map[*Vertex]topology.NodeID)
	swCount := 0
	for _, v := range model.liveVertices() {
		if v.kind == topology.HostNode {
			ids[v] = net.AddHost(v.name)
		} else {
			// Model switches carry the radix the run planned for; on the
			// paper's 8-port fabrics this is exactly AddSwitch.
			ids[v] = net.AddSwitchRadix(fmt.Sprintf("m%d", swCount), model.maxPorts)
			swCount++
		}
	}
	// Port assignment: place index i at port i+p0 with p0 = lo (the lowest
	// feasible offset).
	portOf := make(map[*Vertex]int) // cached p0 per vertex
	base := func(v *Vertex) int {
		if p0, ok := portOf[v]; ok {
			return p0
		}
		lo, hi := model.window(v)
		if lo > hi {
			lo = 0 // inconsistent window (possible only under noise)
		}
		portOf[v] = lo
		return lo
	}
	seen := make(map[*Edge]bool)
	var slotIdx []int
	for _, v := range model.liveVertices() {
		// Walk slots in sorted index order: wire creation order (and with it
		// the exported byte stream) must not depend on map iteration order.
		slotIdx = slotIdx[:0]
		for _, sl := range v.slots {
			slotIdx = append(slotIdx, sl.idx)
		}
		sort.Ints(slotIdx)
		for _, i := range slotIdx {
			for e := range v.at(i) {
				if e.deleted || seen[e] {
					continue
				}
				seen[e] = true
				pa, pb := e.ai, e.bi
				if e.a.kind == topology.SwitchNode {
					pa += base(e.a)
				} else {
					pa = 0
				}
				if e.b.kind == topology.SwitchNode {
					pb += base(e.b)
				} else {
					pb = 0
				}
				if e.a == e.b && pa == pb {
					// A port deduced to be cabled to itself is a loopback
					// plug: probes out of it re-entered through it, and the
					// merge machinery collapsed the apparent far switch
					// onto this one at the same index.
					if err := net.AddReflector(ids[e.a], pa); err != nil {
						return nil, 0, fmt.Errorf("mapper: export reflector: %w", err)
					}
					continue
				}
				if _, err := net.Connect(ids[e.a], pa, ids[e.b], pb); err != nil {
					return nil, 0, fmt.Errorf("mapper: export: %w", err)
				}
			}
		}
	}
	mapperID := net.Lookup(localHost)
	if mapperID == topology.None {
		return nil, 0, errors.New("mapper: mapping host missing from its own map")
	}
	return net, mapperID, nil
}

// exportSamples names one small spec per registered generator; the tests
// fail if the registry and this table disagree.
var exportSamples = map[string]string{
	"butterfly": "butterfly:2x3",
	"d3":        "d3:4,3,1",
	"dragonfly": "dragonfly:3,2,1",
	"fattree":   "fattree:4x3",
	"fattree2":  "fattree2:6x2",
	"hypercube": "hypercube:3",
	"line":      "line:4",
	"mesh":      "mesh:3x3",
	"now-c":     "now-c",
	"now-ca":    "now-ca",
	"now-cab":   "now-cab",
	"random":    "random:6,8,3",
	"ring":      "ring:5",
	"star":      "star:4",
	"torus":     "torus:3x3",
}

// exportWorld is one reproducible mapping scenario: open builds a fresh,
// identical prober every call, so two runs over it see the same answers.
type exportWorld struct {
	name string
	open func() simnet.Prober
	opts []Option
}

// forgingProber answers a share of successful host probes with another
// host's name — the one noise class here that is not conservative: lost
// answers only lose edges, forged ones contradict the model, and past the
// per-vertex re-explore cap they surface as suspect deductions.
type forgingProber struct {
	simnet.Prober
	rate  float64
	rng   *rand.Rand
	names []string
}

func (f *forgingProber) Submit(p simnet.Probe) simnet.ProbeResult {
	r := f.Prober.Submit(p)
	if r.OK && p.Kind == simnet.ProbeHost && f.rng.Float64() < f.rate {
		r.Host = f.names[f.rng.Intn(len(f.names))]
	}
	return r
}

// exportWorlds is the sample both unification tests run on: a quiescent
// network from every registered generator, response loss at three rates,
// seeded fault schedules (cuts, flaps, kills, loss, truncation and
// cross-traffic collisions) live during the map, and forged host answers.
func exportWorlds(t *testing.T) []exportWorld {
	t.Helper()
	var worlds []exportWorld
	names := genspec.Names()
	if len(names) != len(exportSamples) {
		t.Fatalf("registry has %d generators, sample table has %d", len(names), len(exportSamples))
	}
	for _, name := range names {
		spec, ok := exportSamples[name]
		if !ok {
			t.Fatalf("no sample spec for registered generator %q", name)
		}
		res, err := genspec.Build(spec, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		net, h0 := res.Net, res.Net.Hosts()[0]
		worlds = append(worlds, exportWorld{
			name: "quiescent/" + spec,
			open: func() simnet.Prober { return simnet.NewDefault(net.Clone()).Endpoint(h0) },
			opts: []Option{WithDepth(net.DepthBound(h0))},
		})
	}
	for _, rate := range []float64{0.05, 0.2, 0.5} {
		for seed := int64(0); seed < 4; seed++ {
			net := topology.MustRandomConnected(4, 6, 2, rand.New(rand.NewSource(seed)))
			h0 := net.Hosts()[0]
			worlds = append(worlds, exportWorld{
				name: fmt.Sprintf("flaky/%.2f/%d", rate, seed),
				open: func() simnet.Prober {
					return &simnet.FlakyProber{
						Prober:   simnet.NewDefault(net.Clone()).Endpoint(h0),
						DropRate: rate,
						Rng:      rand.New(rand.NewSource(seed + 99)),
					}
				},
				opts: []Option{WithDepth(net.DepthBound(h0))},
			})
		}
	}
	profiles := []faults.Profile{
		{Cuts: 1, Flaps: 1, LossRate: 0.02},
		{Flaps: 2, CrossRate: 0.05},
		{Cuts: 1, SwitchKills: 1, TruncRate: 0.05, CrossRate: 0.1},
		{CrossRate: 0.3, LossRate: 0.1},
	}
	for pi, profile := range profiles {
		for seed := uint64(1); seed <= 4; seed++ {
			net := topology.MustRing(6, 2, rand.New(rand.NewSource(int64(seed))))
			h0 := net.Hosts()[0]
			profile.Protect = h0
			sched := faults.Generate(net, seed, profile)
			worlds = append(worlds, exportWorld{
				name: fmt.Sprintf("faults/%d/%d", pi, seed),
				open: func() simnet.Prober {
					sn := simnet.NewDefault(net.Clone())
					faults.Attach(sn, sched)
					return sn.Endpoint(h0)
				},
				opts: []Option{WithDepth(healDepth(net))},
			})
		}
	}
	for _, rate := range []float64{0.02, 0.1} {
		for seed := int64(1); seed <= 6; seed++ {
			net := topology.MustRandomConnected(5, 8, 3, rand.New(rand.NewSource(seed)))
			h0 := net.Hosts()[0]
			worlds = append(worlds, exportWorld{
				name: fmt.Sprintf("forged/%.2f/%d", rate, seed),
				open: func() simnet.Prober {
					return &forgingProber{
						Prober: simnet.NewDefault(net.Clone()).Endpoint(h0),
						rate:   rate,
						rng:    rand.New(rand.NewSource(seed)),
						names:  net.SortedHostNames(),
					}
				},
				opts: []Option{WithDepth(net.DepthBound(h0))},
			})
		}
	}
	return worlds
}

// conflictSlot plants one persistent conflict in a mapped session's model:
// a loopback-plug deduction on the port of the mapper's attachment switch
// that already holds the mapper's own cable. The verification sweep skips
// self-loop edges (no distinct far side to confirm), so the conflict
// survives every Remap; export keeps the older, real edge and reports the
// plug. It reports false when noise left the mapper host unattached.
func conflictSlot(s *Session) bool {
	m := s.r.model
	h0, _ := find(m.hostByName[s.r.p.LocalHost()])
	for e := range h0.at(0) {
		if !e.deleted {
			v, i := e.otherSide(h0, 0)
			m.file(v, i, &Edge{a: v, ai: i, b: v, bi: i})
			m.liveEdges++
			return true
		}
	}
	return false
}

// TestExportMatchesStrictOracle: the one exporter against the deleted
// strict one, on every model the sample produces plus each of them with a
// planted conflict. Strict succeeds exactly when export reports no
// suspects, and then both write the same bytes and name the same mapper.
func TestExportMatchesStrictOracle(t *testing.T) {
	clean, conflicted := 0, 0
	check := func(t *testing.T, model *Model, local string) {
		t.Helper()
		wantNet, wantID, strictErr := oracleExportModel(model, local)
		net, id, suspects, suspectIDs, err := export(model, local)
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		if (strictErr == nil) != (len(suspects) == 0) {
			t.Fatalf("strict error %v but suspects %v", strictErr, suspects)
		}
		if (len(suspects) == 0) != (len(suspectIDs) == 0) {
			t.Fatalf("suspects %v but suspect ids %v", suspects, suspectIDs)
		}
		if strictErr != nil {
			conflicted++
			if _, err := (&Result{Suspect: suspects}).Exact(); err == nil {
				t.Fatalf("Exact accepted suspects %v", suspects)
			}
			return
		}
		clean++
		if got, want := ckptNetBytes(t, net), ckptNetBytes(t, wantNet); got != want {
			t.Fatalf("export differs from the strict exporter\nwant:\n%s\ngot:\n%s", want, got)
		}
		if id != wantID {
			t.Fatalf("mapper id %d, strict exporter says %d", id, wantID)
		}
	}
	for _, w := range exportWorlds(t) {
		t.Run(w.name, func(t *testing.T) {
			p := w.open()
			s, err := NewSession(p, w.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Map(); err != nil {
				t.Fatal(err)
			}
			check(t, s.r.model, p.LocalHost())
			if conflictSlot(s) {
				check(t, s.r.model, p.LocalHost())
			}
		})
	}
	if clean == 0 || conflicted == 0 {
		t.Fatalf("sample is one-sided: %d clean models, %d conflicted", clean, conflicted)
	}
	t.Logf("%d clean models, %d conflicted", clean, conflicted)
}

// TestRunIsSessionFirstMap: Run is NewSession → Map → strict check. On the
// same sample both return the same map bytes and Stats, and Run errors
// exactly when the session's Result carries suspects.
func TestRunIsSessionFirstMap(t *testing.T) {
	accepted, refused := 0, 0
	defer func() {
		if accepted == 0 || refused == 0 {
			t.Errorf("sample is one-sided: Run accepted %d worlds, refused %d", accepted, refused)
		}
	}()
	for _, w := range exportWorlds(t) {
		t.Run(w.name, func(t *testing.T) {
			s, err := NewSession(w.open(), w.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Map()
			if err != nil {
				t.Fatal(err)
			}
			m, runErr := Run(w.open(), w.opts...)
			if (runErr != nil) != (len(res.Suspect) != 0) {
				t.Fatalf("Run error %v but session suspects %v", runErr, res.Suspect)
			}
			if runErr != nil {
				refused++
				return
			}
			accepted++
			if got, want := ckptNetBytes(t, m.Network), ckptNetBytes(t, res.Network); got != want {
				t.Fatalf("Run and Session.Map wrote different maps\nsession:\n%s\nrun:\n%s", want, got)
			}
			if m.Mapper != res.Mapper {
				t.Fatalf("mapper id %d vs session %d", m.Mapper, res.Mapper)
			}
			if !reflect.DeepEqual(m.Stats, res.Stats) {
				t.Fatalf("stats differ\nsession: %+v\nrun:     %+v", res.Stats, m.Stats)
			}
		})
	}
}

// TestSuspectLoggedOnce: a persistent conflict is logged once per session,
// with the dropped deduction's text, however many times the map is
// re-derived — and the entry survives a checkpoint, so a restored session
// does not log it again either.
func TestSuspectLoggedOnce(t *testing.T) {
	net := topology.MustRing(5, 2, rand.New(rand.NewSource(21)))
	h0 := net.Hosts()[0]
	sn := simnet.NewDefault(net)
	opts := []Option{WithDepth(healDepth(net))}
	s, err := NewSession(sn.Endpoint(h0), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(); err != nil {
		t.Fatal(err)
	}
	if !conflictSlot(s) {
		t.Fatal("mapper host is not attached")
	}

	suspectEntries := func(res *Result) []Observation {
		var out []Observation
		for _, o := range res.FaultLog {
			if o.What == "suspect-edge" {
				out = append(out, o)
			}
		}
		return out
	}
	assertOne := func(stage string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if len(res.Suspect) != 1 {
			t.Fatalf("%s: suspects %v, want the one planted conflict", stage, res.Suspect)
		}
		got := suspectEntries(res)
		if len(got) != 1 || got[0].Probe != res.Suspect[0] {
			t.Fatalf("%s: suspect-edge log %v, want exactly one entry for %s", stage, got, res.Suspect[0])
		}
	}
	res, err := s.Map()
	assertOne("map", res, err)
	res, err = s.Remap()
	assertOne("remap 1", res, err)
	res, err = s.Remap()
	assertOne("remap 2", res, err)

	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(sn.Endpoint(h0), ck, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err = restored.Remap()
	assertOne("restored remap", res, err)
}
