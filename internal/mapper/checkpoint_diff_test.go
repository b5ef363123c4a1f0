package mapper

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"testing"

	"sanmap/internal/faults"
	"sanmap/internal/genspec"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// diffSpecs are the fabrics the checkpoint differential test maps: the
// paper's cluster plus four families with different switch radices, cycle
// structure and host placement.
var diffSpecs = []string{"now-c", "fattree2:8x3", "torus:3x3", "random:6,10,3", "dragonfly:3,2,1"}

// requireCheckpointMatchesOracle fails unless Checkpoint and the fmt-based
// oracle encode s to the same bytes, and returns the image.
func requireCheckpointMatchesOracle(t *testing.T, s *Session, where string) []byte {
	t.Helper()
	got, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	want, err := s.checkpointFmt()
	if err != nil {
		t.Fatalf("%s: oracle: %v", where, err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s: checkpoint differs from the oracle at byte %d of %d/%d:\ngot  %q\nwant %q",
			where, i, len(got), len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
	}
	return got
}

// daemonSession builds spec's fabric under seed and a fresh session over it
// with the options sanmapd maps with, and returns the session, the network
// and the mapping host, plus those options for a restore.
func daemonSession(t testing.TB, spec string, seed int64) (*Session, *simnet.Net, topology.NodeID, []Option) {
	t.Helper()
	res, err := genspec.Build(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	topo := res.Net
	h0, err := topo.MappingHost(res.Utility, "")
	if err != nil {
		t.Fatal(err)
	}
	sn := simnet.NewDefault(topo)
	opts := []Option{WithDepth(topo.DepthBound(h0) + topo.NumSwitches()), WithConfirm(2)}
	s, err := NewSession(sn.Endpoint(h0), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, sn, h0, opts
}

// TestCheckpointMatchesOracle maps each fabric under three seeds and
// compares the append encoder against the fmt oracle at every step
// boundary, after Map, and after each of three seeded cut-and-Remap rounds.
func TestCheckpointMatchesOracle(t *testing.T) {
	// Every record kind must appear in some compared image, or a section
	// the oracle encodes differently could go unnoticed.
	seen := map[string]bool{}
	note := func(img []byte) {
		for _, rec := range []string{"\nv ", "\ne ", "\ns ", "\nj ", "\nc ", "\no "} {
			if bytes.Contains(img, []byte(rec)) {
				seen[rec[1:]] = true
			}
		}
	}
	defer func() {
		if !t.Failed() && len(seen) != 6 {
			t.Errorf("compared images lack some record kinds: saw %v", seen)
		}
	}()
	for _, spec := range diffSpecs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", spec, seed), func(t *testing.T) {
				s, sn, h0, _ := daemonSession(t, spec, seed)
				steps := 0
				s.OnStep(func(st Step) error {
					steps++
					note(requireCheckpointMatchesOracle(t, s, fmt.Sprintf("step %d (%v, round %d)", steps, st.Kind, st.Round)))
					return nil
				})
				if _, err := s.Map(); err != nil {
					t.Fatal(err)
				}
				note(requireCheckpointMatchesOracle(t, s, "after Map"))
				for round := 1; round <= 3; round++ {
					cutAndArm(t, sn, h0, uint64(seed)*10+uint64(round))
					if _, err := s.Remap(); err != nil {
						t.Fatal(err)
					}
					note(requireCheckpointMatchesOracle(t, s, fmt.Sprintf("after Remap %d", round)))
				}
				if steps < 4 {
					t.Fatalf("only %d step boundaries compared", steps)
				}
			})
		}
	}
}

// cutAndArm cuts one seeded link of the live fabric (never h0's) and
// installs the injector so the next Remap observes the damage.
func cutAndArm(t testing.TB, sn *simnet.Net, h0 topology.NodeID, seed uint64) {
	t.Helper()
	p, _, err := faults.ParseProfile("cuts=1")
	if err != nil {
		t.Fatal(err)
	}
	p.Protect = h0
	arm(sn, faults.NewInjector(sn, faults.Generate(sn.Topology(), seed, p)))
}

// TestCheckpointAllocs pins Session.Checkpoint's allocation count on the
// 768-host leaf/spine fabric the daemon's lifecycle benchmark maps, taken
// as the daemon takes it: after the map, with its options. A count, so the
// host's speed cannot make it flake.
func TestCheckpointAllocs(t *testing.T) {
	s, _, _, _ := daemonSession(t, "fattree2:128x6", 1)
	if _, err := s.Map(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("Session.Checkpoint on fattree2:128x6: %.0f allocs, want at most 32", allocs)
	}
}

// FuzzRestoreSession feeds arbitrary images to RestoreSession, seeded with
// real checkpoints of a small ring: after the map, at a remap's step
// boundaries and after it (small seeds keep each execution, and the
// minimisation of every new input, short). Restoring must never panic, and
// a session that restores must encode to a fixpoint — restoring its
// Checkpoint and encoding again gives the same bytes — that the fmt oracle
// agrees with.
func FuzzRestoreSession(f *testing.F) {
	s, sn, h0, opts := daemonSession(f, "ring:3", 1)
	s.OnStep(func(Step) error {
		img, err := s.Checkpoint()
		f.Add(img)
		return err
	})
	if _, err := s.Map(); err != nil {
		f.Fatal(err)
	}
	cutAndArm(f, sn, h0, 1)
	if _, err := s.Remap(); err != nil {
		f.Fatal(err)
	}
	img, err := s.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	// An edge count no image could hold once sized an allocation, and
	// RestoreSession panicked.
	f.Add(regexp.MustCompile(`\nedges \d+\n`).ReplaceAll(img, []byte("\nedges 999999999999999\n")))
	// Slot indices far outside any radix, as a forged image can carry:
	// the slot list is searched, never indexed by them.
	f.Add(shiftSlots(img, 1<<40))
	f.Add(shiftSlots(img, -1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := RestoreSession(sn.Endpoint(h0), data, opts...)
		if err != nil {
			return
		}
		img := requireCheckpointMatchesOracle(t, s, "restored")
		s2, err := RestoreSession(sn.Endpoint(h0), img, opts...)
		if err != nil {
			t.Fatalf("re-restore: %v\n%s", err, img)
		}
		img2, err := s2.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, img2) {
			t.Fatalf("not a fixpoint:\n%s\nvs\n%s", img, img2)
		}
	})
}

// shiftSlots rewrites every slot record of a checkpoint image to sit at
// its index plus by.
func shiftSlots(img []byte, by int) []byte {
	return regexp.MustCompile(`(?m)^s (\d+) (-?\d+) `).ReplaceAllFunc(img, func(line []byte) []byte {
		var v, idx int
		if _, err := fmt.Sscanf(string(line), "s %d %d ", &v, &idx); err != nil {
			panic(err)
		}
		return fmt.Appendf(nil, "s %d %d ", v, idx+by)
	})
}

// TestRestoreExtremeSlotIndices: an image whose slot records sit at ±2^40
// restores, checkpoints back to those indices, and costs no more memory
// than the image it was shifted from.
func TestRestoreExtremeSlotIndices(t *testing.T) {
	s, sn, h0, opts := daemonSession(t, "ring:3", 1)
	if _, err := s.Map(); err != nil {
		t.Fatal(err)
	}
	img, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restoreBytes := func(data []byte) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := RestoreSession(sn.Endpoint(h0), data, opts...)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(s)
		return after.TotalAlloc - before.TotalAlloc
	}
	base := restoreBytes(img)
	for _, by := range []int{1 << 40, -1 << 40} {
		shifted := shiftSlots(img, by)
		if bytes.Equal(shifted, img) {
			t.Fatal("no slot record rewritten")
		}
		if got := restoreBytes(shifted); got > base+64<<10 {
			t.Errorf("shift %d: restore allocated %d bytes, unshifted %d", by, got, base)
		}
		s2, err := RestoreSession(sn.Endpoint(h0), shifted, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := requireCheckpointMatchesOracle(t, s2, "shifted"); !bytes.Equal(got, shifted) {
			t.Errorf("shift %d: checkpoint is not the restored image:\n%s\nvs\n%s", by, got, shifted)
		}
	}
}

// BenchmarkRestoreSession restores the checkpoint the daemon commits after
// mapping the 768-host leaf/spine fabric: the decode a restarted sanmapd
// pays before it can heal.
func BenchmarkRestoreSession(b *testing.B) {
	s, sn, h0, opts := daemonSession(b, "fattree2:128x6", 1)
	if _, err := s.Map(); err != nil {
		b.Fatal(err)
	}
	img, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := RestoreSession(sn.Endpoint(h0), img, opts...); err != nil {
			b.Fatal(err)
		}
	}
}
