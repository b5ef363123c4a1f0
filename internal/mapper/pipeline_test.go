package mapper

import (
	"bytes"
	"math/rand"
	"testing"

	"sanmap/internal/cluster"
	"sanmap/internal/isomorph"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// exportBytes is the byte-identity oracle: the canonical text export of a
// mapped network.
func exportBytes(t *testing.T, m *Map) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Network.Write(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// mapC runs the Berkeley mapper on subcluster C with the given extra
// options.
func mapC(t *testing.T, extra ...Option) *Map {
	t.Helper()
	sys := cluster.CConfig(nil)
	h0 := sys.Mapper()
	sn := simnet.NewDefault(sys.Net)
	opts := append([]Option{WithDepth(sys.Net.DepthBound(h0))}, extra...)
	m, err := Run(sn.Endpoint(h0), opts...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := isomorph.MustEqualCore(m.Network, sys.Net); err != nil {
		t.Fatalf("map not isomorphic to N−F: %v", err)
	}
	return m
}

// TestPipelinedMapDeterministic: mapping C ten times through the pipelined
// engine yields byte-identical exports, each identical to the serial map
// and isomorphic to the real network, in strictly less virtual time.
func TestPipelinedMapDeterministic(t *testing.T) {
	serial := mapC(t)
	want := exportBytes(t, serial)
	for i := 0; i < 10; i++ {
		m := mapC(t, WithPipeline(8))
		if got := exportBytes(t, m); !bytes.Equal(got, want) {
			t.Fatalf("run %d: pipelined export differs from serial:\n%s\nvs\n%s",
				i, got, want)
		}
		if m.Stats.Elapsed >= serial.Stats.Elapsed {
			t.Errorf("run %d: pipelined map not faster: %v vs serial %v",
				i, m.Stats.Elapsed, serial.Stats.Elapsed)
		}
		if ps := m.Stats.Pipeline; ps.Submitted == 0 || ps.MaxInFlight < 2 {
			t.Errorf("run %d: engine idle: %+v", i, ps)
		}
	}
}

// TestPipelineWindowOneIsSerial: window 1 degrades to the exact serial run —
// same bytes, same probe counters, same virtual clock.
func TestPipelineWindowOneIsSerial(t *testing.T) {
	serial := mapC(t)
	w1 := mapC(t, WithPipeline(1))
	if !bytes.Equal(exportBytes(t, serial), exportBytes(t, w1)) {
		t.Error("window=1 export differs from serial")
	}
	if serial.Stats.Probes != w1.Stats.Probes {
		t.Errorf("window=1 probe counters differ: %+v vs %+v",
			w1.Stats.Probes, serial.Stats.Probes)
	}
	if serial.Stats.Elapsed != w1.Stats.Elapsed {
		t.Errorf("window=1 elapsed differs: %v vs %v",
			w1.Stats.Elapsed, serial.Stats.Elapsed)
	}
}

// TestPipelinedMapFamilies: Theorem 1 plus byte-identity hold with the
// engine active across the isomorph-checked topology families.
func TestPipelinedMapFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	nets := []struct {
		name string
		net  *topology.Network
	}{
		{"star", topology.MustStar(4, 3, rng)},
		{"mesh", topology.MustMesh(3, 3, 2, rng)},
		{"torus", topology.MustTorus(3, 3, 2, rng)},
		{"hypercube", topology.MustHypercube(3, 2, rng)},
		{"fattree", topology.MustRandomConnected(5, 7, 2, rng)},
	}
	for _, tc := range nets {
		net := tc.net
		t.Run(tc.name, func(t *testing.T) {
			serial := mapAndVerify(t, net, simnet.CircuitModel, nil)
			piped := mapAndVerify(t, net, simnet.CircuitModel, WithPipeline(8))
			if !bytes.Equal(exportBytes(t, serial), exportBytes(t, piped)) {
				t.Error("pipelined export differs from serial")
			}
		})
	}
}

// TestPipelinedSpeedupCAB: the acceptance ratio — the full 100-node system
// maps at least twice as fast (virtual time) with window 8 as serially.
func TestPipelinedSpeedupCAB(t *testing.T) {
	sys := cluster.CABConfig(nil)
	h0 := sys.Mapper()
	depth := sys.Net.DepthBound(h0)
	run := func(extra ...Option) *Map {
		sn := simnet.NewDefault(sys.Net)
		opts := append([]Option{WithDepth(depth)}, extra...)
		m, err := Run(sn.Endpoint(h0), opts...)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return m
	}
	serial := run()
	piped := run(WithPipeline(8))
	if !bytes.Equal(exportBytes(t, serial), exportBytes(t, piped)) {
		t.Error("pipelined C+A+B export differs from serial")
	}
	ratio := float64(serial.Stats.Elapsed) / float64(piped.Stats.Elapsed)
	if ratio < 2 {
		t.Errorf("pipelined speedup %.2fx, want >= 2x (serial %v, pipelined %v, engine %s)",
			ratio, serial.Stats.Elapsed, piped.Stats.Elapsed, piped.Stats.Pipeline)
	}
	t.Logf("C+A+B: serial %v, window=8 %v (%.2fx), engine %s",
		serial.Stats.Elapsed, piped.Stats.Elapsed, ratio, piped.Stats.Pipeline)
}

// TestPipelinedRandomizedRun: the §6 hybrid batches its coupon probes
// through the engine without changing the resulting map.
func TestPipelinedRandomizedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := topology.MustHypercube(3, 2, rng)
	h0 := net.Hosts()[0]
	run := func(pipe simnet.WindowConfig) *Map {
		sn := simnet.NewDefault(net)
		cfg := DefaultConfig(net.DepthBound(h0))
		cfg.Pipeline = pipe
		m, err := RandomizedRun(sn.Endpoint(h0), RandomizedConfig{
			Config:       cfg,
			CouponProbes: 64,
			Rng:          rand.New(rand.NewSource(42)),
		})
		if err != nil {
			t.Fatalf("RandomizedRun: %v", err)
		}
		if err := isomorph.MustEqualCore(m.Network, net); err != nil {
			t.Fatalf("hybrid map: %v", err)
		}
		return m
	}
	serial := run(simnet.WindowConfig{})
	piped := run(simnet.WindowConfig{Window: 8})
	if !bytes.Equal(exportBytes(t, serial), exportBytes(t, piped)) {
		t.Error("pipelined hybrid export differs from serial")
	}
	if piped.Stats.Elapsed >= serial.Stats.Elapsed {
		t.Errorf("pipelined hybrid not faster: %v vs %v",
			piped.Stats.Elapsed, serial.Stats.Elapsed)
	}
}
