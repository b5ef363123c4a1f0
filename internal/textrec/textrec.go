// Package textrec is the line-record text format sanmap's durable files
// share: mapper session checkpoints and sanmapd's epoch and job files.
//
// A file is a sequence of newline-terminated lines. A record is a line
// holding a key and then its fields, each after one space: decimal
// integers, bare words and Go-quoted strings (strconv.Quote), which never
// span lines. A section is a "key <len>" record followed by exactly len raw
// bytes. Writers build records with the Append functions; a Reader reads
// them back, keeping the first error it meets and naming its line.
package textrec

import (
	"bytes"
	"fmt"
	"strconv"
)

// Flag renders b as the 0/1 field the formats store.
func Flag(b bool) int {
	if b {
		return 1
	}
	return 0
}

// AppendInts appends key and then each value, each after one space.
func AppendInts(b []byte, key string, vals ...int) []byte {
	b = append(b, key...)
	for _, v := range vals {
		b = strconv.AppendInt(append(b, ' '), int64(v), 10)
	}
	return b
}

// AppendUint appends key and v after one space.
func AppendUint(b []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(append(b, key...), ' '), v, 10)
}

// AppendQuoted appends one space and s Go-quoted.
func AppendQuoted(b []byte, s string) []byte {
	return strconv.AppendQuote(append(b, ' '), s)
}

// A Reader reads records from a byte slice. Its first failure sticks: it
// wraps the sentinel the Reader was made with and names the line, and
// every later read returns a zero value, so a caller checks Err once
// after a run of reads rather than after each.
type Reader struct {
	data     []byte
	pos      int    // start of the next line
	line     int    // 1-based number of the line last read
	key      string // the current record's key
	rest     []byte // its unread fields, each after one space
	sentinel error
	err      error
	ints     []int
}

// NewReader returns a Reader over data whose errors wrap sentinel.
func NewReader(data []byte, sentinel error) *Reader {
	return &Reader{data: data, sentinel: sentinel}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records a failure on the line last read, unless one is recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: line %d: %s", r.sentinel, r.line, fmt.Sprintf(format, args...))
	}
}

// Line reads the next line, without its newline.
func (r *Reader) Line() []byte {
	r.rest = nil
	if r.err != nil {
		return nil
	}
	r.line++
	i := bytes.IndexByte(r.data[r.pos:], '\n')
	if i < 0 {
		r.Failf("truncated")
		return nil
	}
	l := r.data[r.pos : r.pos+i]
	r.pos += i + 1
	return l
}

// Expect reads the next line and fails unless it is want.
func (r *Reader) Expect(want string) {
	if l := r.Line(); r.err == nil && string(l) != want {
		r.Failf("want %q, got %q", want, l)
	}
}

// End fails unless every byte has been read.
func (r *Reader) End() {
	if r.err == nil && r.pos != len(r.data) {
		r.line++
		r.Failf("trailing data")
	}
}

// Next reads the next line as a key record. Int, Uint, Float, Word and
// Quoted read its fields in order, and Done checks that none is left.
func (r *Reader) Next(key string) {
	l := r.Line()
	if r.err != nil {
		return
	}
	rest, ok := bytes.CutPrefix(l, []byte(key))
	if !ok || len(rest) > 0 && rest[0] != ' ' {
		r.Failf("want %q record, got %q", key, l)
		return
	}
	r.key, r.rest = key, rest
}

// Done fails unless the current record has no fields left.
func (r *Reader) Done() {
	if r.err == nil && len(r.rest) > 0 {
		r.Failf("%s record: trailing %q", r.key, r.rest)
	}
}

// Word reads the next field as it stands; it aliases the data.
func (r *Reader) Word() []byte {
	if r.err != nil {
		return nil
	}
	if len(r.rest) < 2 || r.rest[0] != ' ' || r.rest[1] == ' ' {
		r.Failf("%s record: missing field", r.key)
		return nil
	}
	w := r.rest[1:]
	r.rest = nil
	if i := bytes.IndexByte(w, ' '); i >= 0 {
		w, r.rest = w[:i], w[i:]
	}
	return w
}

// Int reads the next field as a decimal int.
func (r *Reader) Int() int {
	v, err := strconv.ParseInt(string(r.Word()), 10, 0)
	return int(check(r, v, err))
}

// Uint reads the next field as a decimal uint64.
func (r *Reader) Uint() uint64 {
	v, err := strconv.ParseUint(string(r.Word()), 10, 64)
	return check(r, v, err)
}

// Float reads the next field as a float64.
func (r *Reader) Float() float64 {
	v, err := strconv.ParseFloat(string(r.Word()), 64)
	return check(r, v, err)
}

// check records a field's parse error and zeroes its value.
func check[T int64 | uint64 | float64](r *Reader, v T, err error) T {
	if r.err != nil || err != nil {
		r.Failf("%s record: %v", r.key, err)
		return 0
	}
	return v
}

// Quoted reads the next field as a Go-quoted string.
func (r *Reader) Quoted() string {
	if r.err != nil {
		return ""
	}
	if len(r.rest) < 2 || r.rest[0] != ' ' || r.rest[1] != '"' {
		r.Failf("%s record: want a quoted field", r.key)
		return ""
	}
	q := r.rest[1:]
	j := 1
	for j < len(q) && q[j] != '"' {
		if q[j] == '\\' {
			j++
		}
		j++
	}
	if j >= len(q) {
		r.Failf("%s record: unterminated quote", r.key)
		return ""
	}
	s, err := strconv.Unquote(string(q[:j+1]))
	if err != nil {
		r.Failf("%s record: %v", r.key, err)
		return ""
	}
	r.rest = q[j+1:]
	return s
}

// Ints reads a key record of exactly n int fields (n < 0: any number).
// The slice is reused by the next call, and holds zeros after a failure.
func (r *Reader) Ints(key string, n int) []int {
	r.Next(key)
	r.ints = r.ints[:0]
	for i := 0; i < n || n < 0 && r.err == nil && len(r.rest) > 0; i++ {
		r.ints = append(r.ints, r.Int())
	}
	r.Done()
	if r.err != nil {
		clear(r.ints)
	}
	return r.ints
}

// Count reads a key record of one int counting the records or bytes that
// follow. Each takes at least a byte, so a count beyond the unread data
// fails — before it can size an allocation.
func (r *Reader) Count(key string) int {
	n := r.Ints(key, 1)[0]
	if r.err == nil && (n < 0 || n > len(r.data)-r.pos) {
		r.Failf("%s count %d exceeds the %d bytes left", key, n, len(r.data)-r.pos)
		return 0
	}
	return n
}

// Section reads a "key <len>" record and the len raw bytes after it: nil
// when len is 0, else a slice of the data capped so that appending copies.
func (r *Reader) Section(key string) []byte {
	n := r.Count(key)
	if n == 0 {
		return nil
	}
	s := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	r.line += bytes.Count(s, []byte{'\n'})
	return s
}
