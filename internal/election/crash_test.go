package election

import (
	"math/rand"
	"testing"
	"time"

	"sanmap/internal/cluster"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// TestElectionSurvivesLeaderCrash is the failure mode election mode exists
// for (§4.2): the would-be leader — the highest-addressed host — dies while
// mapping. Its lease is revoked, a passivated mapper notices the vacancy,
// resumes, and completes the map; the network still gets mapped with no
// single point of failure.
func TestElectionSurvivesLeaderCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := topology.MustStar(4, 3, rng)
	depth := net.DepthBound(net.Hosts()[0])
	const seed = 42

	mkConfig := func() Config {
		return Config{
			Model:  simnet.CircuitModel,
			Timing: simnet.DefaultTiming(),
			Mapper: mapper.DefaultConfig(depth),
			Rng:    rand.New(rand.NewSource(seed)),
		}
	}

	// Dry run with the same seed to learn which host draws the highest
	// address: that planned winner is the one we kill mid-map.
	dry, err := Run(net, mkConfig())
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	doomed := dry.Winner

	cfg := mkConfig()
	cfg.Crash = map[string]time.Duration{doomed: 2 * time.Millisecond}
	res, err := Run(net, cfg)
	if err != nil {
		t.Fatalf("election with crash: %v", err)
	}

	if res.Crashed != 1 {
		t.Fatalf("expected the leader's mapper to die mid-map, Crashed=%d "+
			"(crash scheduled too late?)", res.Crashed)
	}
	if res.Winner == doomed {
		t.Fatalf("dead host %s won the election", doomed)
	}
	if res.Completed == 0 {
		t.Fatalf("no mapper completed after the leader crash")
	}
	if res.Crashed+res.Passivated+res.Completed != net.NumHosts() {
		t.Errorf("accounting: %d crashed + %d passivated + %d completed != %d hosts",
			res.Crashed, res.Passivated, res.Completed, net.NumHosts())
	}
	if err := res.Map.Network.Validate(); err != nil {
		t.Fatalf("survivor's map invalid: %v", err)
	}
	// The dead host answers nothing, so the survivor's map legitimately
	// omits it; everything else must match the real network.
	if err := isomorph.MustEqualCoreIgnoring(res.Map.Network, net,
		map[string]bool{doomed: true}); err != nil {
		t.Errorf("survivor's map (ignoring crashed %s): %v", doomed, err)
	}
}

// TestCrashedLeaderCannotReclaimLease: the leader's mapper keeps probing
// after its host dies, until it next polls its cancel hook. On C, seed 3,
// with the leader crashing halfway through its map, those late probes used
// to reach the highest-addressed survivor after the crash had revoked its
// lease. It passivated again on a dead host's address, every other
// survivor heard its address and held too, and the run never ended.
func TestCrashedLeaderCannotReclaimLease(t *testing.T) {
	sys := cluster.CConfig(nil)
	depth := sys.Net.DepthBound(sys.Mapper())
	mkConfig := func() Config {
		return Config{
			Model:  simnet.CircuitModel,
			Timing: simnet.DefaultTiming(),
			Mapper: mapper.DefaultConfig(depth),
			Rng:    rand.New(rand.NewSource(3)),
		}
	}
	dry, err := Run(sys.Net, mkConfig())
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	cfg := mkConfig()
	cfg.Crash = map[string]time.Duration{dry.Winner: dry.Elapsed / 2}

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(sys.Net, cfg)
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(time.Minute):
		t.Fatalf("election with %s crashing at %v still running after a minute: the survivors hold on a dead lease",
			dry.Winner, dry.Elapsed/2)
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Crashed != 1 || out.res.Completed == 0 || out.res.Winner == dry.Winner {
		t.Fatalf("crashed %d, completed %d, winner %s (dead: %s)",
			out.res.Crashed, out.res.Completed, out.res.Winner, dry.Winner)
	}
	if err := isomorph.MustEqualCoreIgnoring(out.res.Map.Network, sys.Net,
		map[string]bool{dry.Winner: true}); err != nil {
		t.Errorf("survivor's map (ignoring crashed %s): %v", dry.Winner, err)
	}
}

// TestElectionCrashOfLoser: a crash of a host that was going to passivate
// anyway must not disturb the outcome — same winner, correct map.
func TestElectionCrashOfLoser(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := topology.MustStar(4, 3, rng)
	depth := net.DepthBound(net.Hosts()[0])
	const seed = 7

	mkConfig := func() Config {
		return Config{
			Model:  simnet.CircuitModel,
			Timing: simnet.DefaultTiming(),
			Mapper: mapper.DefaultConfig(depth),
			Rng:    rand.New(rand.NewSource(seed)),
		}
	}
	dry, err := Run(net, mkConfig())
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	// Kill any host that is not the planned winner.
	victim := ""
	for _, h := range net.Hosts() {
		if name := net.NameOf(h); name != dry.Winner {
			victim = name
			break
		}
	}

	cfg := mkConfig()
	cfg.Crash = map[string]time.Duration{victim: 1 * time.Millisecond}
	res, err := Run(net, cfg)
	if err != nil {
		t.Fatalf("election with loser crash: %v", err)
	}
	if res.Winner != dry.Winner {
		t.Errorf("loser crash changed the winner: %s vs %s", res.Winner, dry.Winner)
	}
	if err := isomorph.MustEqualCoreIgnoring(res.Map.Network, net,
		map[string]bool{victim: true}); err != nil {
		t.Errorf("winner's map (ignoring crashed %s): %v", victim, err)
	}
}
