package mapd

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sanmap/internal/obs"
	"sanmap/internal/topology"
)

func testEpoch(n uint64) *Epoch {
	return &Epoch{
		EpochMeta: EpochMeta{
			Number: n, Parent: n - 1, Job: n,
			Resumed: n%2 == 0, VClock: 17 * time.Millisecond, Probes: 136,
			Confidence: 0.875, Partial: n%2 == 1,
			Suspects:   []string{`m1[3]--m2[0]`, "odd \"name\"\nwith newline"},
			SuspectIDs: []topology.NodeID{3, 9},
		},
		NetText:    []byte("hosts 2\nswitches 1\n... not parsed by the store ...\n"),
		Checkpoint: []byte("sanmap-checkpoint 1\nopaque to the store\n"),
	}
}

func TestEpochEncodeParseRoundTrip(t *testing.T) {
	ep := testEpoch(3)
	got, err := parseEpoch(encodeEpoch(ep))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ep, got) {
		t.Fatalf("round trip:\nin  %+v\nout %+v", ep, got)
	}
	// Empty optional fields survive too.
	min := &Epoch{EpochMeta: EpochMeta{Number: 1, Confidence: 1}}
	got, err = parseEpoch(encodeEpoch(min))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(min, got) {
		t.Fatalf("minimal round trip:\nin  %+v\nout %+v", min, got)
	}
}

func TestEpochChecksumRejectsFlips(t *testing.T) {
	data := encodeEpoch(testEpoch(1))
	for _, i := range []int{0, len(data) / 2, len(data) - 12} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := parseEpoch(bad); !errors.Is(err, ErrBadEpoch) {
			t.Errorf("flip at %d: got %v, want ErrBadEpoch", i, err)
		}
	}
	if _, err := parseEpoch(data[:len(data)-4]); !errors.Is(err, ErrBadEpoch) {
		t.Errorf("truncated file: got %v", err)
	}
}

// TestEpochStrictHeader: a confidence that is not a number, and a
// suspect-ids record whose count is not a number or does not match the ids
// after it, make the file bad instead of reading as 0 or as whatever ids
// follow.
func TestEpochStrictHeader(t *testing.T) {
	for _, c := range []struct{ old, new string }{
		{"confidence 0.875\n", "confidence banana\n"},
		{"suspect-ids 2 3 9\n", "suspect-ids x 7 9\n"},
		{"suspect-ids 2 3 9\n", "suspect-ids 3 3 9\n"},
		{"suspect-ids 2 3 9\n", "suspect-ids 1 3 9\n"},
	} {
		data := withCRC(bytes.Replace(epochBody(testEpoch(3)), []byte(c.old), []byte(c.new), 1))
		if _, err := parseEpoch(data); !errors.Is(err, ErrBadEpoch) {
			t.Errorf("%q: got %v, want ErrBadEpoch", c.new, err)
		}
	}
}

// epochBody is ep's encoding without its crc trailer.
func epochBody(ep *Epoch) []byte {
	data := encodeEpoch(ep)
	return data[:bytes.LastIndex(data, []byte("crc "))]
}

// withCRC appends a valid crc trailer to body.
func withCRC(body []byte) []byte {
	return fmt.Appendf(append([]byte(nil), body...), "crc %08x\n", crc32.ChecksumIEEE(body))
}

func TestStoreCommitAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Latest() != nil {
		t.Fatal("empty store has a latest epoch")
	}
	if err := st.Commit(testEpoch(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(testEpoch(2)); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Latest(); got == nil || got.Number != 2 {
		t.Fatalf("Latest after reopen: %+v", got)
	}
	if len(st2.Epochs()) != 2 || st2.Corrupt() != 0 {
		t.Fatalf("reopen: %d epochs, %d corrupt", len(st2.Epochs()), st2.Corrupt())
	}
}

// TestStoreSkipsCorruptEpochs: a newest epoch file that fails to parse —
// bit-rotted, or left empty by a rename that reached the disk before its
// data — is skipped at open, does not count for fencing, and the next
// commit replaces it.
func TestStoreSkipsCorruptEpochs(t *testing.T) {
	for _, corrupt := range []struct {
		name string
		mend func([]byte) []byte
	}{
		{"flipped", func(data []byte) []byte { data[len(data)/3] ^= 0xff; return data }},
		{"empty", func([]byte) []byte { return nil }},
	} {
		t.Run(corrupt.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			for n := uint64(1); n <= 2; n++ {
				if err := st.Commit(testEpoch(n)); err != nil {
					t.Fatal(err)
				}
			}
			// Corrupt the newest file: the store must fall back to epoch 1.
			path := filepath.Join(dir, "epoch-000002.san")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt.mend(data), 0o666); err != nil {
				t.Fatal(err)
			}
			st2, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := st2.Latest(); got == nil || got.Number != 1 {
				t.Fatalf("Latest with corrupt newest: %+v", got)
			}
			if st2.Corrupt() != 1 {
				t.Fatalf("Corrupt() = %d, want 1", st2.Corrupt())
			}
			if err := st2.Commit(testEpoch(2)); err != nil {
				t.Fatalf("commit over the corrupt epoch 2: %v", err)
			}
			st3, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := st3.Latest(); got == nil || got.Number != 2 || st3.Corrupt() != 0 {
				t.Fatalf("after the replacing commit: latest %+v, %d corrupt", got, st3.Corrupt())
			}
		})
	}
}

// TestStoreCommitFencing: a commit whose parent is no longer the on-disk
// latest must fail with ErrFenced — even when the store's own memory is
// stale because another process committed behind its back.
func TestStoreCommitFencing(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(testEpoch(1)); err != nil {
		t.Fatal(err)
	}
	// Wrong parent, checked against memory and disk alike.
	if err := st.Commit(testEpoch(3)); !errors.Is(err, ErrFenced) {
		t.Fatalf("parent skip: got %v, want ErrFenced", err)
	}
	// A second process (simulated via a second Store handle) wins the race.
	other, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Commit(testEpoch(2)); err != nil {
		t.Fatal(err)
	}
	// The loser's view says "latest is 1", but the disk says 2: fenced.
	if err := st.Commit(testEpoch(2)); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale commit: got %v, want ErrFenced", err)
	}
}

func TestNextJobID(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.NextJobID(); got != 1 {
		t.Fatalf("empty store NextJobID = %d, want 1", got)
	}
	ep := testEpoch(1)
	ep.Job = 5
	if err := st.Commit(ep); err != nil {
		t.Fatal(err)
	}
	if got := st.NextJobID(); got != 6 {
		t.Fatalf("after epoch job 5: NextJobID = %d, want 6", got)
	}
	// A leftover job file from a dead job must fence its ID too, even
	// without an epoch: job IDs never repeat.
	if err := st.writeJob(&Epoch{EpochMeta: EpochMeta{Number: 2, Parent: 1, Job: 9}}); err != nil {
		t.Fatal(err)
	}
	if got := st.NextJobID(); got != 10 {
		t.Fatalf("with job-9.san: NextJobID = %d, want 10", got)
	}
}

// FuzzParseEpoch holds the one decoder of epoch and job files: it never
// panics, and whatever it accepts re-encodes — as the fmt oracle does — to
// bytes it parses back to the same encoding. Each input is also tried with
// a valid CRC trailer appended, so mutations reach the field parser, not
// only the checksum.
func FuzzParseEpoch(f *testing.F) {
	f.Add(encodeEpoch(testEpoch(3)))
	f.Add(encodeEpoch(&Epoch{EpochMeta: EpochMeta{Number: 1, Confidence: 1}}))
	f.Add(encodeEpoch(&Epoch{EpochMeta: EpochMeta{Number: 5, Parent: 4, Job: 9, VClock: 42}, Checkpoint: []byte("x\n")}))
	f.Add(epochBody(testEpoch(2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withCRC(data)} {
			ep, err := parseEpoch(in)
			if err != nil {
				continue
			}
			enc := encodeEpoch(ep)
			again, err := parseEpoch(enc)
			if err != nil {
				t.Fatalf("re-encoding of an accepted file does not parse: %v\n%q", err, enc)
			}
			if got := encodeEpoch(again); !bytes.Equal(got, enc) {
				t.Fatalf("encode → parse → encode differs:\n%q\n%q", enc, got)
			}
			if want := encodeEpochFmt(ep); !bytes.Equal(enc, want) {
				t.Fatalf("append encoder differs from the fmt oracle:\n%q\n%q", enc, want)
			}
		}
	})
}

// BenchmarkParseEpoch decodes the first epoch sanmapd commits for the
// 768-host leaf/spine fabric: the checksum, the header and both sections.
func BenchmarkParseEpoch(b *testing.B) {
	dir := b.TempDir()
	srv, err := New(Config{Gen: "fattree2:128x6", StateDir: dir, Once: true, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Run(); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "epoch-000001.san"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := parseEpoch(data); err != nil {
			b.Fatal(err)
		}
	}
}
