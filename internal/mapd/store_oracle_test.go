package mapd

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"sanmap/internal/obs"
	"sanmap/internal/topology"
)

// encodeEpochFmt is the epoch encoder as it was written with fmt, kept as
// the oracle the append encoder in store.go must match byte for byte. It
// shares no code with that encoder.
func encodeEpochFmt(ep *Epoch) []byte {
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", epochMagic)
	fmt.Fprintf(&b, "epoch %d\n", ep.Number)
	fmt.Fprintf(&b, "parent %d\n", ep.Parent)
	fmt.Fprintf(&b, "job %d\n", ep.Job)
	fmt.Fprintf(&b, "resumed %d\n", b2i(ep.Resumed))
	fmt.Fprintf(&b, "vclock %d\n", int64(ep.VClock))
	fmt.Fprintf(&b, "probes %d\n", ep.Probes)
	fmt.Fprintf(&b, "confidence %s\n", strconv.FormatFloat(ep.Confidence, 'g', -1, 64))
	fmt.Fprintf(&b, "partial %d\n", b2i(ep.Partial))
	fmt.Fprintf(&b, "suspects %d\n", len(ep.Suspects))
	for _, s := range ep.Suspects {
		fmt.Fprintf(&b, "suspect %q\n", s)
	}
	fmt.Fprintf(&b, "suspect-ids %d", len(ep.SuspectIDs))
	for _, id := range ep.SuspectIDs {
		fmt.Fprintf(&b, " %d", id)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "network %d\n", len(ep.NetText))
	b.Write(ep.NetText)
	fmt.Fprintf(&b, "checkpoint %d\n", len(ep.Checkpoint))
	b.Write(ep.Checkpoint)
	fmt.Fprintf(&b, "crc %08x\n", crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// TestEncodeEpochMatchesOracle holds encodeEpoch to the fmt encoder on the
// test epochs, on seeded random headers (escapes, ε, invalid UTF-8,
// extreme numbers and non-finite confidences among them) and on the epoch
// and job files a real daemon run writes.
func TestEncodeEpochMatchesOracle(t *testing.T) {
	eps := []*Epoch{testEpoch(1), testEpoch(2), {EpochMeta: EpochMeta{Number: 1, Confidence: 1}}}
	rng := rand.New(rand.NewSource(1))
	words := []string{"", "ε", "m1[3]--m2[0]", "tab\there", "\xff\x00", `quote "q" \ back`, "línea\n"}
	floats := []float64{0, 1, 0.875, 1e-300, math.Inf(1), math.NaN(), -0.0}
	for range 200 {
		n := rng.Uint64() >> rng.Intn(64)
		ep := &Epoch{EpochMeta: EpochMeta{
			Number: n, Parent: n - 1, Job: rng.Uint64(), Resumed: rng.Intn(2) == 0,
			VClock: time.Duration(rng.Int63() - rng.Int63()), Probes: rng.Int63() >> rng.Intn(63),
			Confidence: floats[rng.Intn(len(floats))] * rng.Float64(), Partial: rng.Intn(2) == 0,
		}}
		for range rng.Intn(4) {
			ep.Suspects = append(ep.Suspects, words[rng.Intn(len(words))])
			ep.SuspectIDs = append(ep.SuspectIDs, topology.NodeID(rng.Intn(1<<20)))
		}
		if rng.Intn(2) == 0 {
			ep.NetText = []byte(words[rng.Intn(len(words))])
			ep.Checkpoint = []byte("sanmap-checkpoint 1\n")
		}
		eps = append(eps, ep)
	}
	dir := t.TempDir()
	srv, err := New(Config{Gen: "now-c", Seed: 1, Chaos: "seed=5,cuts=2", StateDir: dir, Once: true, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.san"))
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := parseEpoch(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got := encodeEpoch(ep); !bytes.Equal(got, data) {
			t.Fatalf("%s does not re-encode to its own bytes", p)
		}
		eps = append(eps, ep)
	}
	if len(files) == 0 {
		t.Fatal("the daemon run wrote no epoch")
	}
	for i, ep := range eps {
		if got, want := encodeEpoch(ep), encodeEpochFmt(ep); !bytes.Equal(got, want) {
			t.Fatalf("epoch %d: append encoder differs from the fmt oracle:\ngot  %q\nwant %q", i, got, want)
		}
	}
}
