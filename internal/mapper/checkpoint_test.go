package mapper

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sanmap/internal/faults"
	"sanmap/internal/genspec"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// goldenChaos are the seed pairs the checkpoint/restore suite replays:
// every (topology seed, fault profile) here must heal with at least one
// dropped edge so the resumable state machine is actually exercised.
var goldenChaos = []struct {
	topoSeed uint64
	profile  string
}{
	{1, "seed=5,cuts=2"},
	{3, "seed=11,cuts=3"},
	{7, "seed=2,cuts=1,kills=1"},
}

// ckptProber records every probe a session issues so interrupted and
// uninterrupted runs can be compared probe for probe.
type ckptProber struct {
	simnet.Prober
	log *[]string
}

func (r *ckptProber) Submit(p simnet.Probe) simnet.ProbeResult {
	res := r.Prober.Submit(p)
	*r.log = append(*r.log, fmt.Sprintf("%v %v -> %q %v", p.Kind, p.Route, res.Host, res.OK))
	return res
}

// ckptWorld builds the daemon's scenario: structural chaos events are
// withheld while the initial map runs (rates-only injector) and are
// force-applied between Map and Remap, exactly like sanmapd does between
// epoch one and the first heal.
func ckptWorld(t *testing.T, topoSeed uint64, profile string) (*simnet.Net, *faults.Injector, topology.NodeID, int) {
	t.Helper()
	rng := rand.New(faults.NewSource(topoSeed))
	res, err := genspec.Build("now-c", rng)
	if err != nil {
		t.Fatal(err)
	}
	topo := res.Net
	h0 := topo.Lookup(res.Utility)
	depth := topo.DepthBound(h0) + topo.NumSwitches()
	sn := simnet.NewDefault(topo)
	p, seed, err := faults.ParseProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	p.Protect = h0
	sched := faults.Generate(topo, seed, p)
	rates := sched
	rates.Events = nil
	faults.Attach(sn, rates)
	inj := faults.NewInjector(sn, sched)
	return sn, inj, h0, depth
}

func arm(sn *simnet.Net, inj *faults.Injector) {
	sn.SetInjector(inj)
	inj.ApplyAll()
	sn.Reconfigure()
}

func ckptNetBytes(t *testing.T, n *topology.Network) string {
	t.Helper()
	var b bytes.Buffer
	if err := n.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// refRun maps and heals one golden world uninterrupted, returning the
// session's remap probe log, the map probe count and the healed network.
func refRun(t *testing.T, topoSeed uint64, profile string) (remapLog []string, mapProbes int, net string) {
	t.Helper()
	var log []string
	sn, inj, h0, depth := ckptWorld(t, topoSeed, profile)
	pr := &ckptProber{Prober: sn.Endpoint(h0), log: &log}
	s, err := NewSession(pr, WithDepth(depth), WithConfirm(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(); err != nil {
		t.Fatal(err)
	}
	mapProbes = len(log)
	arm(sn, inj)
	res, err := s.Remap()
	if err != nil {
		t.Fatal(err)
	}
	return log[mapProbes:], mapProbes, ckptNetBytes(t, res.Network)
}

// TestCheckpointEncodeDecodeEncode asserts the image is a fixpoint:
// restoring a checkpoint and re-serializing it reproduces the bytes.
func TestCheckpointEncodeDecodeEncode(t *testing.T) {
	for _, g := range goldenChaos {
		var log []string
		sn, _, h0, depth := ckptWorld(t, g.topoSeed, g.profile)
		pr := &ckptProber{Prober: sn.Endpoint(h0), log: &log}
		s, err := NewSession(pr, WithDepth(depth), WithConfirm(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Map(); err != nil {
			t.Fatal(err)
		}
		img, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := RestoreSession(pr, img, WithDepth(depth), WithConfirm(2))
		if err != nil {
			t.Fatalf("seed=%d restore: %v", g.topoSeed, err)
		}
		img2, err := s2.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, img2) {
			t.Fatalf("seed=%d: checkpoint not a fixpoint (%d vs %d bytes)",
				g.topoSeed, len(img), len(img2))
		}
	}
}

// TestCheckpointRestoreRemap checkpoints after the map, restores into a
// fresh process image (new world, new session), heals, and asserts the
// resumed run issues exactly the reference probes and exports the same
// bytes.
func TestCheckpointRestoreRemap(t *testing.T) {
	for _, g := range goldenChaos {
		refRemap, _, refNet := refRun(t, g.topoSeed, g.profile)

		var log []string
		sn, _, h0, depth := ckptWorld(t, g.topoSeed, g.profile)
		pr := &ckptProber{Prober: sn.Endpoint(h0), log: &log}
		s, err := NewSession(pr, WithDepth(depth), WithConfirm(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Map(); err != nil {
			t.Fatal(err)
		}
		img, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}

		sn2, inj2, h02, depth2 := ckptWorld(t, g.topoSeed, g.profile)
		var rlog []string
		pr2 := &ckptProber{Prober: sn2.Endpoint(h02), log: &rlog}
		s2, err := RestoreSession(pr2, img, WithDepth(depth2), WithConfirm(2))
		if err != nil {
			t.Fatalf("seed=%d restore: %v", g.topoSeed, err)
		}
		arm(sn2, inj2)
		res, err := s2.Remap()
		if err != nil {
			t.Fatalf("seed=%d resumed remap: %v", g.topoSeed, err)
		}
		if got, want := strings.Join(rlog, "\n"), strings.Join(refRemap, "\n"); got != want {
			t.Fatalf("seed=%d: restored remap probes diverge (%d vs %d probes)",
				g.topoSeed, len(rlog), len(refRemap))
		}
		if ckptNetBytes(t, res.Network) != refNet {
			t.Fatalf("seed=%d: restored remap network differs", g.topoSeed)
		}
	}
}

// TestCheckpointSuspendEveryStep interrupts the heal at every step
// boundary in turn, restores the mid-heal image into a fresh world, and
// asserts the stitched probe sequence and the final export are identical
// to the uninterrupted run — the property sanmapd's crash harness depends
// on.
func TestCheckpointSuspendEveryStep(t *testing.T) {
	for _, g := range goldenChaos {
		refRemap, mapProbes, refNet := refRun(t, g.topoSeed, g.profile)
		resumedOnce := false
		for k := 1; k <= 16; k++ {
			var log []string
			sn, inj, h0, depth := ckptWorld(t, g.topoSeed, g.profile)
			pr := &ckptProber{Prober: sn.Endpoint(h0), log: &log}
			s, err := NewSession(pr, WithDepth(depth), WithConfirm(2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Map(); err != nil {
				t.Fatal(err)
			}
			mapLen := len(log)
			arm(sn, inj)
			steps := 0
			var img []byte
			s.OnStep(func(Step) error {
				steps++
				if steps == k {
					var cerr error
					img, cerr = s.Checkpoint()
					if cerr != nil {
						return cerr
					}
					return ErrSuspended
				}
				return nil
			})
			res, err := s.Remap()
			if err == nil {
				// Fewer than k steps: the whole remap ran uninterrupted.
				if got, want := strings.Join(log[mapLen:], "\n"), strings.Join(refRemap, "\n"); got != want {
					t.Fatalf("seed=%d k=%d: uninterrupted rerun diverged", g.topoSeed, k)
				}
				if ckptNetBytes(t, res.Network) != refNet {
					t.Fatalf("seed=%d k=%d: uninterrupted rerun network differs", g.topoSeed, k)
				}
				break
			}
			if !errors.Is(err, ErrSuspended) {
				t.Fatalf("seed=%d k=%d: %v", g.topoSeed, k, err)
			}
			pre := append([]string(nil), log[mapLen:]...)

			sn2, inj2, h02, depth2 := ckptWorld(t, g.topoSeed, g.profile)
			var post []string
			pr2 := &ckptProber{Prober: sn2.Endpoint(h02), log: &post}
			s2, err := RestoreSession(pr2, img, WithDepth(depth2), WithConfirm(2))
			if err != nil {
				t.Fatalf("seed=%d k=%d restore: %v", g.topoSeed, k, err)
			}
			arm(sn2, inj2)
			res2, err := s2.Remap()
			if err != nil {
				t.Fatalf("seed=%d k=%d resumed remap: %v", g.topoSeed, k, err)
			}
			stitched := strings.Join(append(pre, post...), "\n")
			if want := strings.Join(refRemap, "\n"); stitched != want {
				t.Fatalf("seed=%d k=%d: stitched probe sequence diverges (%d+%d probes, want %d)",
					g.topoSeed, k, len(pre), len(post), len(refRemap))
			}
			if ckptNetBytes(t, res2.Network) != refNet {
				t.Fatalf("seed=%d k=%d: resumed network differs", g.topoSeed, k)
			}
			// Resuming must be cheaper than remapping from scratch, which
			// in turn is far cheaper than a cold map of the healed network.
			if len(post) >= mapProbes {
				t.Fatalf("seed=%d k=%d: resume spent %d probes, cold map costs %d",
					g.topoSeed, k, len(post), mapProbes)
			}
			if len(post) < len(refRemap) {
				resumedOnce = true
			}
		}
		if !resumedOnce {
			t.Fatalf("seed=%d: no suspension point saved probes — profile too weak", g.topoSeed)
		}
	}
}

// TestCheckpointResumeSavesProbes quantifies the resume win: continuing a
// half-done heal must cost strictly fewer probes than running the whole
// heal again and far fewer than a cold map.
func TestCheckpointResumeSavesProbes(t *testing.T) {
	g := goldenChaos[0]
	refRemap, mapProbes, _ := refRun(t, g.topoSeed, g.profile)

	var log []string
	sn, inj, h0, depth := ckptWorld(t, g.topoSeed, g.profile)
	pr := &ckptProber{Prober: sn.Endpoint(h0), log: &log}
	s, err := NewSession(pr, WithDepth(depth), WithConfirm(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(); err != nil {
		t.Fatal(err)
	}
	arm(sn, inj)
	steps := 0
	var img []byte
	s.OnStep(func(Step) error {
		steps++
		if steps == 2 {
			var cerr error
			img, cerr = s.Checkpoint()
			if cerr != nil {
				return cerr
			}
			return ErrSuspended
		}
		return nil
	})
	if _, err := s.Remap(); !errors.Is(err, ErrSuspended) {
		t.Fatalf("want ErrSuspended, got %v", err)
	}

	sn2, inj2, h02, depth2 := ckptWorld(t, g.topoSeed, g.profile)
	var post []string
	pr2 := &ckptProber{Prober: sn2.Endpoint(h02), log: &post}
	s2, err := RestoreSession(pr2, img, WithDepth(depth2), WithConfirm(2))
	if err != nil {
		t.Fatal(err)
	}
	arm(sn2, inj2)
	if _, err := s2.Remap(); err != nil {
		t.Fatal(err)
	}
	if len(post) >= len(refRemap) {
		t.Fatalf("resume spent %d probes, full heal spends %d", len(post), len(refRemap))
	}
	if len(post) >= mapProbes {
		t.Fatalf("resume spent %d probes, cold map spends %d", len(post), mapProbes)
	}
}

// TestCheckpointUnsupportedConfigs: sessions with a pipelined window or a
// Fig 8 snapshot series refuse to checkpoint rather than lie about
// resumability.
func TestCheckpointUnsupportedConfigs(t *testing.T) {
	sn, _, h0, depth := ckptWorld(t, 1, "seed=5,cuts=2")
	for _, opts := range [][]Option{
		{WithDepth(depth), WithPipeline(4)},
		{WithDepth(depth), WithSnapshots(true)},
	} {
		s, err := NewSession(sn.Endpoint(h0), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Checkpoint(); !errors.Is(err, ErrUncheckpointable) {
			t.Fatalf("want ErrUncheckpointable, got %v", err)
		}
	}
}
