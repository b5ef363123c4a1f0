package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Arg is one key/value annotation on a trace event. Values are rendered
// eagerly at the instrumentation site, so the export shows exactly what
// the site recorded and the writers need no reflection.
type Arg struct {
	Key string
	Val string
}

// String builds an Arg with a literal string value.
func String(key, val string) Arg { return Arg{Key: key, Val: val} }

// Int builds an Arg from an int.
func Int(key string, v int) Arg { return Arg{Key: key, Val: strconv.Itoa(v)} }

// Int64 builds an Arg from an int64.
func Int64(key string, v int64) Arg { return Arg{Key: key, Val: strconv.FormatInt(v, 10)} }

// Duration builds an Arg from a virtual-time duration.
func Duration(key string, d time.Duration) Arg { return Arg{Key: key, Val: d.String()} }

// event is one recorded trace entry: a complete span (ph 'X') or an
// instant (ph 'i') on a logical track (Chrome thread id).
type event struct {
	ph   byte
	tid  int
	cat  string
	name string
	at   time.Duration
	dur  time.Duration // spans only; -1 while still open
	args []Arg
}

// Tracer records spans and instant events against the virtual clock. It
// holds everything in memory (runs are bounded and virtual) and writes on
// demand, so recording order — which is deterministic whenever the
// instrumented run is — fully determines the output bytes. A nil *Tracer
// is a valid no-op: every method checks the receiver, so call sites
// plumb one pointer through and never branch on "is tracing on?".
//
// A Tracer is not safe for concurrent use; like the transports it
// instruments, its concurrency is virtual (desim interleavings arrive
// strictly ordered).
type Tracer struct {
	events []event
	open   []int // indices of Begin spans awaiting End, innermost last
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Len reports the number of recorded events (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Begin opens a span at virtual time at. Spans opened with Begin must be
// strictly nested; virtually-concurrent actors use Track.Span instead.
func (t *Tracer) Begin(cat, name string, at time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.open = append(t.open, len(t.events))
	t.events = append(t.events, event{ph: 'X', tid: 1, cat: cat, name: name, at: at, dur: -1, args: args})
}

// End closes the innermost open span at virtual time at.
func (t *Tracer) End(at time.Duration) {
	if t == nil || len(t.open) == 0 {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	if d := at - t.events[i].at; d > 0 {
		t.events[i].dur = d
	} else {
		t.events[i].dur = 0
	}
}

// Instant records a point event at virtual time at.
func (t *Tracer) Instant(cat, name string, at time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{ph: 'i', tid: 1, cat: cat, name: name, at: at, args: args})
}

// Span records a complete span with explicit bounds, bypassing the
// Begin/End stack — for callers whose spans interleave.
func (t *Tracer) Span(cat, name string, from, to time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	d := to - from
	if d < 0 {
		d = 0
	}
	t.events = append(t.events, event{ph: 'X', tid: 1, cat: cat, name: name, at: from, dur: d, args: args})
}

// Track is a view of a Tracer that records onto one Chrome thread id.
// Perfetto renders each tid as its own row, so virtually-concurrent
// actors — election mappers — get separate, readable
// rows instead of overlapping spans on one track. A nil *Track (from a
// nil Tracer) is a valid no-op.
type Track struct {
	t   *Tracer
	tid int
}

// OnTrack returns the track for Chrome thread id tid (tid >= 1; the
// default methods record on track 1).
func (t *Tracer) OnTrack(tid int) *Track {
	if t == nil {
		return nil
	}
	return &Track{t: t, tid: tid}
}

// Span records a complete span on this track.
func (tr *Track) Span(cat, name string, from, to time.Duration, args ...Arg) {
	if tr == nil {
		return
	}
	n := len(tr.t.events)
	tr.t.Span(cat, name, from, to, args...)
	tr.t.events[n].tid = tr.tid
}

// Instant records a point event on this track.
func (tr *Track) Instant(cat, name string, at time.Duration, args ...Arg) {
	if tr == nil {
		return
	}
	n := len(tr.t.events)
	tr.t.Instant(cat, name, at, args...)
	tr.t.events[n].tid = tr.tid
}

// micros renders a virtual-time offset in Chrome's microsecond unit with
// fixed nanosecond precision — pure integer arithmetic, so the encoding
// is platform- and run-independent.
func micros(d time.Duration) string {
	ns := int64(d)
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// jstr renders s as a JSON string literal.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `""` // unreachable: strings always marshal
	}
	return string(b)
}

// writeChromeEvent renders one event object. Key order is fixed, floats
// never appear (timestamps are integer-derived strings), and args keep
// their recording order, so the byte stream is deterministic.
func writeChromeEvent(w *bufio.Writer, e event) {
	fmt.Fprintf(w, `{"name":%s,"cat":%s,"ph":"%c","ts":%s`, jstr(e.name), jstr(e.cat), e.ph, micros(e.at))
	if e.ph == 'X' {
		d := e.dur
		if d < 0 {
			d = 0 // span never closed: exported with zero duration
		}
		fmt.Fprintf(w, `,"dur":%s`, micros(d))
	}
	if e.ph == 'i' {
		w.WriteString(`,"s":"t"`)
	}
	fmt.Fprintf(w, `,"pid":1,"tid":%d`, e.tid)
	if len(e.args) > 0 {
		w.WriteString(`,"args":{`)
		for i, a := range e.args {
			if i > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%s:%s", jstr(a.Key), jstr(a.Val))
		}
		w.WriteByte('}')
	}
	w.WriteByte('}')
}

// WriteChrome emits the recorded events as a Chrome trace_event JSON
// array, loadable in chrome://tracing and Perfetto. Timestamps are the
// virtual-clock offsets in microseconds. A nil tracer writes an empty
// array, so sidecar plumbing needs no special case.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[")
	if t != nil {
		for i, e := range t.events {
			if i > 0 {
				bw.WriteString(",")
			}
			bw.WriteString("\n")
			writeChromeEvent(bw, e)
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// FormatLine renders one event as a deterministic text log line: the
// virtual timestamp, a dotted cat.name label, then key=value args. It is
// the single text rendering of an event; WriteText calls it.
func FormatLine(at time.Duration, cat, name string, args ...Arg) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12v %-18s", at, cat+"."+name)
	for _, a := range args {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Val)
	}
	return b.String()
}

// WriteText emits the recorded events as the deterministic text log, one
// FormatLine per event in recording order; spans carry a leading dur arg.
func (t *Tracer) WriteText(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, e := range t.events {
		if e.ph == 'X' {
			d := e.dur
			if d < 0 {
				d = 0
			}
			args := make([]Arg, 0, len(e.args)+1)
			args = append(args, Duration("dur", d))
			args = append(args, e.args...)
			fmt.Fprintln(bw, FormatLine(e.at, e.cat, e.name, args...))
			continue
		}
		fmt.Fprintln(bw, FormatLine(e.at, e.cat, e.name, e.args...))
	}
	return bw.Flush()
}
