package election

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"sanmap/internal/cluster"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
)

// The election digest pins what the desim engine decides on subcluster C:
// for seeds 1–32, once with no crash and once with the planned winner
// crashing halfway through its map (resume mode: passivated mappers poll
// their lease and take over), the winner, finishing time, participant
// counts, probe totals and the winner's map statistics must hash to the
// checked-in digest. A change to the engine that claims to change no
// behaviour leaves testdata/digest.golden byte-identical. Regenerate after
// an intentional change with
//
//	UPDATE_GOLDEN=1 go test -run TestElectionDigest ./internal/election
const digestGolden = "testdata/digest.golden"

func TestElectionDigest(t *testing.T) {
	sys := cluster.CConfig(nil)
	depth := sys.Net.DepthBound(sys.Mapper())
	run := func(seed int64, crash map[string]time.Duration) *Result {
		t.Helper()
		res, err := Run(sys.Net, Config{
			Model:  simnet.CircuitModel,
			Timing: simnet.DefaultTiming(),
			Mapper: mapper.DefaultConfig(depth),
			Rng:    rand.New(rand.NewSource(seed)),
			Crash:  crash,
		})
		if err != nil {
			t.Fatalf("seed %d, crash %v: %v", seed, crash, err)
		}
		return res
	}
	line := func(w *bytes.Buffer, seed int64, res *Result) {
		fmt.Fprintf(w, "seed=%d winner=%s elapsed=%d passivated=%d crashed=%d completed=%d probes=%+v stats=%+v\n",
			seed, res.Winner, res.Elapsed, res.Passivated, res.Crashed, res.Completed, res.Probes, res.Map.Stats)
	}

	var calm, crashed bytes.Buffer
	for seed := int64(1); seed <= 32; seed++ {
		res := run(seed, nil)
		line(&calm, seed, res)
		doomed := map[string]time.Duration{res.Winner: res.Elapsed / 2}
		res = run(seed, doomed)
		if res.Crashed != 1 {
			t.Fatalf("seed %d: the winner's crash at %v killed %d mappers, want 1", seed, doomed, res.Crashed)
		}
		line(&crashed, seed, res)
	}
	got := fmt.Sprintf("no-crash %x\nwinner-crash %x\n",
		sha256.Sum256(calm.Bytes()), sha256.Sum256(crashed.Bytes()))

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("election outcomes drifted from %s\n--- got\n%s--- want\n%s--- no-crash runs\n%s--- winner-crash runs\n%s",
			digestGolden, got, want, calm.Bytes(), crashed.Bytes())
	}
}
