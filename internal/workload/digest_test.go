package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"
)

// The traffic digest pins a mapper run as a desim process beside
// cross-traffic on subcluster C: at light, knee and heavy load, the map,
// its statistics, the traffic counts and the mapping time must hash to the
// checked-in digest. A change to the engine that claims to change no
// behaviour leaves testdata/digest.golden byte-identical. Regenerate after
// an intentional change with
//
//	UPDATE_GOLDEN=1 go test -run TestMapUnderTrafficDigest ./internal/workload
const digestGolden = "testdata/digest.golden"

func TestMapUnderTrafficDigest(t *testing.T) {
	var got bytes.Buffer
	for _, load := range []float64{0.05, 0.3, 0.35} {
		m, stats, took, err := exactOnC(PlanConfig{
			Pattern:  Uniform,
			Load:     load,
			MsgBytes: 4096,
			Seed:     9,
		})
		fmt.Fprintf(&got, "load=%g took=%d traffic=%+v err=%v", load, took, *stats, err)
		if m != nil {
			h := sha256.New()
			if err := m.Network.Write(h); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, " map=%x stats=%+v", h.Sum(nil)[:12], m.Stats)
		}
		got.WriteByte('\n')
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("mapping under traffic drifted from %s\n--- got\n%s--- want\n%s", digestGolden, got.Bytes(), want)
	}
}
