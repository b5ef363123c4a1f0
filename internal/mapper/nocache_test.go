package mapper

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"sanmap/internal/genspec"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Two facts are why the probe window has no response cache (DESIGN.md §12):
// a run never sends the same probe twice, so a cache would have nothing to
// answer; and a session's answers go stale at the first fault, so across
// runs it would have only wrong ones. One test each.

// recordingProber remembers every (kind, route) handed to the transport and
// lists the ones it saw again.
type recordingProber struct {
	*simnet.Endpoint
	seen    map[string]bool
	repeats []string
}

func (r *recordingProber) note(p simnet.Probe) {
	key := p.Kind.String() + " " + p.Route.String()
	if r.seen[key] {
		r.repeats = append(r.repeats, key)
	}
	r.seen[key] = true
}

func (r *recordingProber) Submit(p simnet.Probe) simnet.ProbeResult {
	r.note(p)
	return r.Endpoint.Submit(p)
}

// TestRunNeverRepeatsAProbe: on one small fabric per registered generator,
// serial and through a window of 8, no (kind, route) reaches the transport
// twice within one Run; the pipelined map is the serial map byte for byte;
// and the window's speculation — probes the serial loop's tighter filters
// would have skipped — stays within Window per exploration, the bound
// pipeline.go claims for exploreStream.
func TestRunNeverRepeatsAProbe(t *testing.T) {
	const window = 8
	for _, name := range genspec.Names() {
		spec, ok := exportSamples[name]
		if !ok {
			t.Fatalf("no sample spec for registered generator %q", name)
		}
		built, err := genspec.Build(spec, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		net, h0 := built.Net, built.Net.Hosts()[0]
		mapWith := func(w int) *Map {
			rec := &recordingProber{Endpoint: simnet.NewDefault(net.Clone()).Endpoint(h0), seen: map[string]bool{}}
			m, err := Run(rec, WithDepth(net.DepthBound(h0)), WithPipeline(w))
			if err != nil {
				t.Fatalf("%s window %d: %v", spec, w, err)
			}
			if len(rec.repeats) > 0 {
				t.Errorf("%s window %d: probes submitted more than once: %q", spec, w, rec.repeats)
			}
			return m
		}
		serial, piped := mapWith(1), mapWith(window)
		if !bytes.Equal(exportBytes(t, serial), exportBytes(t, piped)) {
			t.Errorf("%s: pipelined export differs from the serial one", spec)
		}
		extra := piped.Stats.Pipeline.Submitted - serial.Stats.Probes.TotalProbes()
		if bound := int64(window * piped.Stats.Explorations); extra > bound {
			t.Errorf("%s: window sent %d probes more than the serial run, bound is %d (window %d × %d explorations)",
				spec, extra, bound, window, piped.Stats.Explorations)
		}
	}
}

// TestPipelinedRemapMatchesSerial: a pipelined session heals exactly as the
// serial one does. A window that remembered answers across calls would have
// Remap re-explore the switches beside a cut from their pre-fault answers,
// contradict itself and re-explore again until staleLimit refused (ring 6×2,
// 30 seeds: 120 contradictions against 30, confidence 0.81 against 0.94).
func TestPipelinedRemapMatchesSerial(t *testing.T) {
	fabrics := []struct {
		name  string
		build func(rng *rand.Rand) *topology.Network
	}{
		{"ring6x2", func(rng *rand.Rand) *topology.Network { return topology.MustRing(6, 2, rng) }},
		{"torus:4x4", func(rng *rand.Rand) *topology.Network {
			built, err := genspec.Build("torus:4x4", rng)
			if err != nil {
				t.Fatal(err)
			}
			return built.Net
		}},
	}
	variants := []struct {
		name string
		opt  Option
	}{
		{"serial", nil},
		{"WithPipeline(8)", WithPipeline(8)},
	}
	type healed struct {
		Contradictions, Reexplored int
		Confidence                 float64
		Suspect                    []string
		Export                     string
	}
	for _, fab := range fabrics {
		for seed := int64(1); seed <= 30; seed++ {
			var want healed
			for vi, v := range variants {
				net := fab.build(rand.New(rand.NewSource(seed)))
				h0 := net.Hosts()[0]
				sn := simnet.NewDefault(net)
				s, err := NewSession(sn.Endpoint(h0), WithDepth(healDepth(net)), v.opt)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				if _, err := s.Map(); err != nil {
					t.Fatalf("%s seed %d %s: Map: %v", fab.name, seed, v.name, err)
				}
				cutNthSwitchWire(t, sn.Topology(), false, int(seed))
				sn.Reconfigure()
				res, err := s.Remap()
				if err != nil {
					t.Fatalf("%s seed %d %s: Remap: %v", fab.name, seed, v.name, err)
				}
				got := healed{res.Stats.Contradictions, res.Stats.Reexplored, res.Confidence,
					res.Suspect, string(exportBytes(t, res.Map))}
				if vi == 0 {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d %s: healed to %+v\nthe serial session to %+v", fab.name, seed, v.name, got, want)
				}
			}
		}
	}
}
