package textrec

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

var errBad = errors.New("bad record")

func TestReaderReadsWhatAppendWrites(t *testing.T) {
	b := append(AppendInts(nil, "heal", 3, -1, 0), '\n')
	b = append(AppendQuoted(AppendQuoted(AppendInts(append(b, "v 7 h"...), "", 1), "a \"b\"\n"), "ε"), '\n')
	b = append(AppendUint(b, "epoch", 1<<63+5), '\n')
	b = append(b, "confidence 0.875\n"...)
	b = append(AppendInts(b, "ids", 4, 5, 6, 7), '\n')
	b = append(AppendInts(b, "raw", 4), '\n')
	b = append(b, "x\ny\nz\n"...)
	b = append(b, "end\n"...)

	r := NewReader(b, errBad)
	if got := r.Ints("heal", 3); fmt.Sprint(got) != "[3 -1 0]" {
		t.Errorf("heal = %v", got)
	}
	r.Next("v")
	id, kind, n, s, q := r.Int(), r.Word(), r.Int(), r.Quoted(), r.Quoted()
	r.Done()
	if id != 7 || string(kind) != "h" || n != 1 || s != "a \"b\"\n" || q != "ε" {
		t.Errorf("v = %d %q %d %q %q", id, kind, n, s, q)
	}
	r.Next("epoch")
	if u := r.Uint(); u != 1<<63+5 {
		t.Errorf("epoch = %d", u)
	}
	r.Done()
	r.Next("confidence")
	if c := r.Float(); c != 0.875 {
		t.Errorf("confidence = %v", c)
	}
	r.Done()
	if got := r.Ints("ids", -1); fmt.Sprint(got) != "[4 5 6 7]" {
		t.Errorf("ids = %v", got)
	}
	if got := r.Section("raw"); string(got) != "x\ny\n" {
		t.Errorf("raw = %q", got)
	}
	if got := r.Line(); string(got) != "z" {
		t.Errorf("line after the section = %q", got)
	}
	r.Expect("end")
	r.End()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	// The section's newlines count: a failure past it names the right line.
	r.Line()
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "line 11: truncated") {
		t.Errorf("read past the end: %v", err)
	}
}

// TestReaderErrors: every malformed input fails with the sentinel and the
// number of the line at fault, and the first failure sticks.
func TestReaderErrors(t *testing.T) {
	for _, c := range []struct {
		name, in string
		read     func(r *Reader)
		line     int
	}{
		{"truncated", "a 1\n", func(r *Reader) { r.Ints("a", 1); r.Ints("b", 1) }, 2},
		{"no final newline", "a 1\na 2", func(r *Reader) { r.Ints("a", 1); r.Ints("a", 1) }, 2},
		{"wrong key", "a 1\nc 2\n", func(r *Reader) { r.Ints("a", 1); r.Ints("b", 1) }, 2},
		{"key prefix", "ab 1\n", func(r *Reader) { r.Ints("a", 1) }, 1},
		{"too many fields", "a 1 2\n", func(r *Reader) { r.Ints("a", 1) }, 1},
		{"too few fields", "a\n", func(r *Reader) { r.Ints("a", 1) }, 1},
		{"empty field", "a 1  2\n", func(r *Reader) { r.Ints("a", 2) }, 1},
		{"trailing space", "a 1 \n", func(r *Reader) { r.Ints("a", -1) }, 1},
		{"not an int", "x\na banana\n", func(r *Reader) { r.Line(); r.Ints("a", 1) }, 2},
		{"int overflow", "a 99999999999999999999\n", func(r *Reader) { r.Ints("a", 1) }, 1},
		{"negative uint", "a -1\n", func(r *Reader) { r.Next("a"); r.Uint() }, 1},
		{"not a float", "a 1.5x\n", func(r *Reader) { r.Next("a"); r.Float() }, 1},
		{"unquoted", "q abc\n", func(r *Reader) { r.Next("q"); r.Quoted() }, 1},
		{"unterminated quote", "q \"abc\n", func(r *Reader) { r.Next("q"); r.Quoted() }, 1},
		{"escaped close", "q \"abc\\\"\n", func(r *Reader) { r.Next("q"); r.Quoted() }, 1},
		{"bad escape", "q \"a\\qb\"\n", func(r *Reader) { r.Next("q"); r.Quoted() }, 1},
		{"junk after quote", "q \"a\"b\n", func(r *Reader) { r.Next("q"); r.Quoted(); r.Done() }, 1},
		{"huge count", "n 999999999999\nx\n", func(r *Reader) { r.Count("n") }, 1},
		{"negative count", "n -1\n", func(r *Reader) { r.Count("n") }, 1},
		{"short section", "a 1\nraw 5\nab\n", func(r *Reader) { r.Ints("a", 1); r.Section("raw") }, 2},
		{"trailing data", "end\nmore\n", func(r *Reader) { r.Expect("end"); r.End() }, 2},
		{"sticky", "a x\nb 1\n", func(r *Reader) { r.Ints("a", 1); r.Ints("b", 1); r.Failf("later") }, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader([]byte(c.in), errBad)
			c.read(r)
			err := r.Err()
			if !errors.Is(err, errBad) || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", c.line)) {
				t.Fatalf("got %v, want the sentinel and line %d", err, c.line)
			}
		})
	}
}

// TestReaderZeroAfterFailure: once failed, reads return zero values of
// the promised shape, so a caller may index them before checking Err.
func TestReaderZeroAfterFailure(t *testing.T) {
	r := NewReader([]byte("a 1 x 3\nb 4 5\nn 2\n"), errBad)
	if got := r.Ints("a", 3); fmt.Sprint(got) != "[0 0 0]" {
		t.Errorf("failed record = %v", got)
	}
	if got := r.Ints("b", 2); fmt.Sprint(got) != "[0 0]" {
		t.Errorf("record after the failure = %v", got)
	}
	if n := r.Count("n"); n != 0 || r.Quoted() != "" || r.Section("s") != nil {
		t.Errorf("reads after the failure are not zero")
	}
}

// FuzzRoundTrip appends integer, word, quoted-string and section records
// and reads them back: every value must come back unchanged, escapes, ε
// and invalid UTF-8 included.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(0), uint64(0), "ε", "", []byte(nil))
	f.Add(int64(-7), uint64(1<<63), "odd \"name\"\nwith newline", `\x00 \\ "`, []byte("raw\nbytes\n"))
	f.Add(int64(1<<62), uint64(42), "\xff\xfe", "\t ", []byte("crc 0\n"))
	f.Fuzz(func(t *testing.T, x int64, u uint64, s, q string, raw []byte) {
		b := append(AppendInts(nil, "n", int(x), -int(x/2), 0), '\n')
		b = append(AppendQuoted(AppendQuoted(AppendInts(b, "q", int(x)), s), q), '\n')
		b = append(AppendUint(b, "u", u), '\n')
		b = append(AppendInts(b, "raw", len(raw)), '\n')
		b = append(b, raw...)
		b = append(b, "end\n"...)

		r := NewReader(b, errBad)
		n := append([]int(nil), r.Ints("n", 3)...)
		r.Next("q")
		gx, gs, gq := r.Int(), r.Quoted(), r.Quoted()
		r.Done()
		r.Next("u")
		gu := r.Uint()
		r.Done()
		sec := r.Section("raw")
		r.Expect("end")
		r.End()
		if err := r.Err(); err != nil {
			t.Fatalf("%v\n%q", err, b)
		}
		if n[0] != int(x) || n[1] != -int(x/2) || n[2] != 0 || gx != int(x) || gu != u {
			t.Errorf("integers: %v %d %d, want %d %d", n, gx, gu, x, u)
		}
		if gs != s || gq != q {
			t.Errorf("quoted: %q %q, want %q %q", gs, gq, s, q)
		}
		if !bytes.Equal(sec, raw) {
			t.Errorf("section %q, want %q", sec, raw)
		}
	})
}
