package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"sanmap/internal/isomorph"
	"sanmap/internal/routes"
	"sanmap/internal/topology"
)

// TestSweepOrderAndBound: results come back indexed by trial, and the
// sweep never runs more than GOMAXPROCS trials at once.
func TestSweepOrderAndBound(t *testing.T) {
	const n, workers = 64, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	var inFlight, peak int32
	got, err := Sweep(n, func(trial int) (int, error) {
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		_, err := Sweep(32, func(trial int) (int, error) {
			if trial == 7 || trial == 21 {
				return 0, fmt.Errorf("trial %d failed", trial)
			}
			return trial, nil
		})
		if err == nil || err.Error() != "trial 7 failed" {
			t.Errorf("GOMAXPROCS %d: err = %v, want trial 7's", procs, err)
		}
	}
}

// TestSweepEmpty: zero trials is a clean no-op.
func TestSweepEmpty(t *testing.T) {
	got, err := Sweep(0, func(int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Errorf("Sweep(0) = %v, %v; want nil, nil", got, err)
	}
}

// atProcs runs f under GOMAXPROCS 1 and then 8, restoring the setting
// afterwards, and returns both results.
func atProcs[T any](t *testing.T, f func() (T, error)) (serial, parallel T) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var err error
	runtime.GOMAXPROCS(1)
	if serial, err = f(); err != nil {
		t.Fatalf("GOMAXPROCS 1: %v", err)
	}
	runtime.GOMAXPROCS(8)
	if parallel, err = f(); err != nil {
		t.Fatalf("GOMAXPROCS 8: %v", err)
	}
	return serial, parallel
}

// TestFig7SweepDeterministic locks the sweep determinism contract on a real
// experiment: the Fig 7 report under GOMAXPROCS 8 is byte-identical to the
// one under GOMAXPROCS 1.
func TestFig7SweepDeterministic(t *testing.T) {
	serial, parallel := atProcs(t, func() ([]Fig7Row, error) { return Fig7Sweep(2, 4) })
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel Fig 7 rows differ from serial")
	}
	if s, p := FormatFig7(serial), FormatFig7(parallel); s != p {
		t.Fatalf("parallel Fig 7 report not byte-identical:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestRandomizedTrialsDeterministic: per-trial seeding makes the randomized
// sweep independent of GOMAXPROCS.
func TestRandomizedTrialsDeterministic(t *testing.T) {
	serial, parallel := atProcs(t, func() ([]RandomizedTrial, error) { return RandomizedTrials(4, 100, 3) })
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel randomized trials differ from serial:\n%v\n%v", serial, parallel)
	}
}

// TestReadOnlyAnalysesShareOneNetwork: read-only means shareable. Eight
// sweep workers run the diameter, Q, bridges, the route pipeline and the core
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
		tbl.Pairs(func(src, dst topology.NodeID, p routes.Path) {
			out += fmt.Sprintf("\n%d>%d %v", src, dst, p.Route())
		})
		return out, nil
	}
	wantRoutes, err := allRoutes(ref)
	if err != nil {
		t.Fatal(err)
	}
	core, _ := ref.Core()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	_, err = Sweep(32, func(trial int) (struct{}, error) {
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
