package mapd

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sanmap/internal/genspec"
	"sanmap/internal/mapper"
	"sanmap/internal/simnet"
)

// TestFormatErrorContract feeds truncated, reordered, wrong-arity,
// bad-quote and huge-count images of both on-disk formats — a session
// checkpoint to mapper.RestoreSession, an epoch file (with a valid crc
// trailer) to parseEpoch. Each must fail with its format's sentinel and
// name the line at fault.
func TestFormatErrorContract(t *testing.T) {
	res, err := genspec.Build("ring:3", rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	h0, err := res.Net.MappingHost(res.Utility, "")
	if err != nil {
		t.Fatal(err)
	}
	sn := simnet.NewDefault(res.Net)
	opts := []mapper.Option{mapper.WithDepth(res.Net.DepthBound(h0) + res.Net.NumSwitches()), mapper.WithConfirm(2)}
	s, err := mapper.NewSession(sn.Endpoint(h0), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	formats := map[string]struct {
		image    []byte
		decode   func([]byte) error
		sentinel error
	}{
		"checkpoint": {ckpt, func(b []byte) error {
			_, err := mapper.RestoreSession(sn.Endpoint(h0), b, opts...)
			return err
		}, mapper.ErrBadCheckpoint},
		"epoch": {epochBody(testEpoch(3)), func(b []byte) error {
			_, err := parseEpoch(withCRC(b))
			return err
		}, ErrBadEpoch},
	}

	// Each edit finds the first line that starts with key and changes the
	// image there. The error must name that line — or the count line just
	// before it when a counted run is cut short, and the line after it for
	// data past the end.
	truncate := func(lines []string, i int) []string { return append(lines[:i:i], "") }
	swap := func(lines []string, i int) []string {
		lines[i], lines[i+1] = lines[i+1], lines[i]
		return lines
	}
	suffix := func(s string) func([]string, int) []string {
		return func(lines []string, i int) []string { lines[i] += s; return lines }
	}
	unquote := func(lines []string, i int) []string { lines[i] = strings.TrimSuffix(lines[i], `"`); return lines }
	dropField := func(lines []string, i int) []string {
		lines[i] = lines[i][:strings.LastIndex(lines[i], " ")]
		return lines
	}
	count := func(lines []string, i int) []string {
		key, _, _ := strings.Cut(lines[i], " ")
		lines[i] = key + " 999999999999999"
		return lines
	}
	for _, c := range []struct {
		format, name, key string
		edit              func([]string, int) []string
		after             int
	}{
		{"checkpoint", "truncated", "end", truncate, 0},
		{"checkpoint", "truncated section", "e ", truncate, -1},
		{"checkpoint", "reordered", "heal ", swap, 0},
		{"checkpoint", "wrong arity", "stats ", suffix(" 7"), 0},
		{"checkpoint", "missing field", "e ", dropField, 0},
		{"checkpoint", "bad quote", "v ", unquote, 0},
		{"checkpoint", "bad int", "model ", suffix("x"), 0},
		{"checkpoint", "huge count", "edges ", count, 0},
		{"checkpoint", "trailing data", "end", suffix("\nend"), 1},
		{"epoch", "truncated", "probes ", truncate, 0},
		{"epoch", "reordered", "parent ", swap, 0},
		{"epoch", "wrong arity", "probes ", suffix(" 1"), 0},
		{"epoch", "bad quote", "suspect ", unquote, 0},
		{"epoch", "bad confidence", "confidence ", suffix("x"), 0},
		{"epoch", "suspect-ids count", "suspect-ids ", suffix(" 4"), 0},
		{"epoch", "huge count", "suspects ", count, 0},
		{"epoch", "huge section", "checkpoint ", count, 0},
	} {
		t.Run(c.format+"/"+c.name, func(t *testing.T) {
			f := formats[c.format]
			lines := strings.Split(string(f.image), "\n")
			i := 0
			for i < len(lines) && !strings.HasPrefix(lines[i], c.key) {
				i++
			}
			if i == len(lines) {
				t.Fatalf("no %q line in the %s image", c.key, c.format)
			}
			err := f.decode([]byte(strings.Join(c.edit(lines, i), "\n")))
			line := i + 1 + c.after
			if !errors.Is(err, f.sentinel) || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", line)) {
				t.Fatalf("got %v, want %v at line %d", err, f.sentinel, line)
			}
		})
	}
}
