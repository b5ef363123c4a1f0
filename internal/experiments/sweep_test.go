package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"sanmap/internal/isomorph"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// TestSweepOrderAndBound: results come back indexed by trial, and the pool
// never runs more than the requested number of trials at once.
func TestSweepOrderAndBound(t *testing.T) {
	const n, workers = 64, 4
	var inFlight, peak int32
	got, err := Sweep(n, workers, func(trial int) (int, error) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		defer atomic.AddInt32(&inFlight, -1)
		return trial * trial, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("trial %d = %d, want %d", i, v, i*i)
		}
	}
	if peak > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", peak, workers)
	}
}

// TestSweepError: the reported error is the lowest-index failure, matching
// what a serial run stops on.
func TestSweepError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := Sweep(32, workers, func(trial int) (int, error) {
			if trial == 7 || trial == 21 {
				return 0, fmt.Errorf("trial %d failed", trial)
			}
			return trial, nil
		})
		if err == nil || err.Error() != "trial 7 failed" {
			t.Errorf("workers=%d: err = %v, want trial 7's", workers, err)
		}
	}
}

// TestSweepEmpty: zero trials is a clean no-op.
func TestSweepEmpty(t *testing.T) {
	got, err := Sweep(0, 4, func(int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Errorf("Sweep(0) = %v, %v; want nil, nil", got, err)
	}
}

// TestFig7SweepDeterministic locks the sweep determinism contract on a real
// experiment: the parallel Fig 7 report is byte-identical to the serial one.
func TestFig7SweepDeterministic(t *testing.T) {
	serial, err := Fig7Sweep(2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig7Sweep(2, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel Fig 7 rows differ from serial")
	}
	if s, p := FormatFig7(serial), FormatFig7(parallel); s != p {
		t.Fatalf("parallel Fig 7 report not byte-identical:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestRandomizedTrialsDeterministic: per-trial seeding makes the randomized
// sweep independent of the worker count.
func TestRandomizedTrialsDeterministic(t *testing.T) {
	serial, err := RandomizedTrials(4, 100, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RandomizedTrials(4, 100, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel randomized trials differ from serial:\n%v\n%v", serial, parallel)
	}
}

// TestReadOnlyAnalysesShareOneNetwork: read-only means shareable. Eight
// workers run the diameter, Q, bridges, the route pipeline and the core
// isomorphism check on one Network at once — its index not even built when
// they start — and each must see what a serial pass over a private copy
// saw. The race lane turns any shared scratch into a failure.
func TestReadOnlyAnalysesShareOneNetwork(t *testing.T) {
	net := topology.MustRandomConnected(8, 12, 4, rand.New(rand.NewSource(5)))
	topology.WithTail(net, net.Switches()[0], 2, rand.New(rand.NewSource(6)))
	h0 := net.Hosts()[0]

	ref := net.Clone()
	wantDiameter := ref.Diameter()
	wantQ, _ := ref.Q(h0)
	wantBridges := ref.Bridges()
	allRoutes := func(n *topology.Network) (string, error) {
		tbl, err := routes.Compute(n, routes.DefaultConfig())
		if err != nil {
			return "", err
		}
		out := fmt.Sprintf("root %d", tbl.Root)
		tbl.Pairs(func(src, dst topology.NodeID, _ []int, turns simnet.Route) {
			out += fmt.Sprintf("\n%d>%d %v", src, dst, turns)
		})
		return out, nil
	}
	wantRoutes, err := allRoutes(ref)
	if err != nil {
		t.Fatal(err)
	}
	core, _ := ref.Core()

	_, err = Sweep(32, 8, func(trial int) (struct{}, error) {
		var none struct{}
		if d := net.Diameter(); d != wantDiameter {
			return none, fmt.Errorf("trial %d: diameter %d, want %d", trial, d, wantDiameter)
		}
		if q, _ := net.Q(h0); q != wantQ {
			return none, fmt.Errorf("trial %d: Q %d, want %d", trial, q, wantQ)
		}
		if b := net.Bridges(); !reflect.DeepEqual(b, wantBridges) {
			return none, fmt.Errorf("trial %d: bridges %v, want %v", trial, b, wantBridges)
		}
		if got, err := allRoutes(net); err != nil || got != wantRoutes {
			return none, fmt.Errorf("trial %d: route table differs from the serial one (err %v)", trial, err)
		}
		if err := isomorph.MustEqualCore(core, net); err != nil {
			return none, fmt.Errorf("trial %d: %w", trial, err)
		}
		return none, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
