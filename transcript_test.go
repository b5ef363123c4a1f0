package sanmap_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"testing"

	"sanmap/internal/cluster"
	"sanmap/internal/election"
	"sanmap/internal/mapper"
	"sanmap/internal/myricom"
	"sanmap/internal/obs"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// The transcript pin: every mapping driver, run on the now-c cluster with
// port-embedding seed 1, must send the same probes at the same virtual
// times, report the same statistics and export the same map as the recorded
// golden. A refactor of the probe plane (transports, window, drivers) that
// claims to change no behaviour has to leave testdata/transcripts.golden
// byte-identical. Regenerate after an intentional change with
//
//	UPDATE_GOLDEN=1 go test -run TestProbeTranscriptGolden .
const transcriptGolden = "testdata/transcripts.golden"

// sum renders a finished hash as a short hex digest.
func sum(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:12]) }

// mapDigest hashes the exported map's file form.
func mapDigest(t *testing.T, net *topology.Network) string {
	t.Helper()
	h := sha256.New()
	if err := net.Write(h); err != nil {
		t.Fatal(err)
	}
	return sum(h)
}

// loggedNet wraps the seed-1 now-c fabric in a transport whose probe log
// feeds a running hash: one line per probe with its kind, source, route,
// verdict and the virtual time it was issued at.
func loggedNet(sys *cluster.System, model simnet.Model) (*simnet.Net, hash.Hash) {
	sn := simnet.New(sys.Net, model, simnet.DefaultTiming())
	h := sha256.New()
	sn.SetProbeLog(func(kind string, from topology.NodeID, r simnet.Route, ok bool) {
		fmt.Fprintf(h, "%s %d %s %t %d\n", kind, from, r, ok, sn.Clock())
	})
	return sn, h
}

func TestProbeTranscriptGolden(t *testing.T) {
	sys := cluster.CConfig(rand.New(rand.NewSource(1)))
	h0 := sys.Mapper()
	depth := sys.Net.DepthBound(h0)

	var got bytes.Buffer
	driver := func(name string, selfID bool, run func(ep *simnet.Endpoint) (*mapper.Map, error)) {
		sn, h := loggedNet(sys, simnet.CircuitModel)
		if selfID {
			sn.EnableSelfID()
		}
		m, err := run(sn.Endpoint(h0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s transcript=%s map=%s clock=%d stats=%+v\n",
			name, sum(h), mapDigest(t, m.Network), sn.Clock(), m.Stats)
	}
	driver("berkeley-serial", false, func(ep *simnet.Endpoint) (*mapper.Map, error) {
		return mapper.Run(ep, mapper.WithDepth(depth))
	})
	driver("berkeley-window8", false, func(ep *simnet.Endpoint) (*mapper.Map, error) {
		return mapper.Run(ep, mapper.WithDepth(depth), mapper.WithPipeline(8))
	})
	driver("label", false, func(ep *simnet.Endpoint) (*mapper.Map, error) {
		return mapper.LabelRun(ep, depth)
	})
	driver("oracle", true, func(ep *simnet.Endpoint) (*mapper.Map, error) {
		return mapper.OracleRun(ep, depth)
	})
	driver("randomized", false, func(ep *simnet.Endpoint) (*mapper.Map, error) {
		return mapper.Run(ep, mapper.WithDepth(depth), mapper.WithCoupons(200, rand.New(rand.NewSource(1))))
	})

	{
		sn, h := loggedNet(sys, simnet.PacketModel)
		m, err := myricom.Run(sn.Endpoint(h0), myricom.DefaultConfig(depth))
		if err != nil {
			t.Fatalf("myricom: %v", err)
		}
		fmt.Fprintf(&got, "myricom transcript=%s map=%s clock=%d stats=%+v\n",
			sum(h), mapDigest(t, m.Network), sn.Clock(), m.Stats)
	}

	{
		// The election runs over the contended transport, which has no probe
		// log; its transcript is the telemetry trace (every participant's
		// lifetime, passivation and completion at its virtual timestamp).
		tr := obs.NewTracer()
		res, err := election.Run(sys.Net, election.Config{
			Model: simnet.CircuitModel, Timing: simnet.DefaultTiming(),
			Mapper: mapper.DefaultConfig(depth),
			Rng:    rand.New(rand.NewSource(1)),
			Tracer: tr,
		})
		if err != nil {
			t.Fatalf("election: %v", err)
		}
		h := sha256.New()
		if err := tr.WriteText(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "election transcript=%s map=%s winner=%s elapsed=%d passivated=%d completed=%d probes=%+v stats=%+v\n",
			sum(h), mapDigest(t, res.Map.Network), res.Winner, res.Elapsed,
			res.Passivated, res.Completed, res.Probes, res.Map.Stats)
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(transcriptGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(transcriptGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("probe transcripts drifted from %s\n--- got\n%s--- want\n%s", transcriptGolden, got.Bytes(), want)
	}
}
