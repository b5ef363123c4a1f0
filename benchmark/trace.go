package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it, and the request or cycle it belongs to. The layer is the part
// of the name before the first dot.
type span struct {
	name       string
	start, end time.Duration // since the recorder started
	parent     int32         // index into recorder.spans, -1 for a root
	track      int32
	req        int64
}

// recorder keeps spans in memory until the benchmark ends. Spans are
// recorded from the harness's own files, around the calls into each layer's
// exported functions; spans inside the program are ROADMAP item 4.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex //sanlint:guards spans,tracks
	spans  []span
	tracks int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// track is one goroutine's span stack. A nil track records nothing, so
// untraced runs take the same code path minus the clock reads.
type track struct {
	r     *recorder
	id    int32
	stack []int32
}

func (r *recorder) newTrack() *track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracks++
	return &track{r: r, id: r.tracks}
}

// begin opens a span under the track's innermost open span.
func (t *track) begin(name string, req int64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.r.mu.Lock()
	id := int32(len(t.r.spans))
	t.r.spans = append(t.r.spans, span{name: name, start: time.Since(t.r.t0), parent: parent, track: t.id, req: req})
	t.r.mu.Unlock()
	t.stack = append(t.stack, id)
}

// end closes the innermost open span.
func (t *track) end() {
	if t == nil {
		return
	}
	now := time.Since(t.r.t0)
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.r.mu.Lock()
	t.r.spans[id].end = now
	t.r.mu.Unlock()
}

// selfMs folds the spans into per-name self times in milliseconds: a
// span's duration minus the part of it its child spans cover.
func (r *recorder) selfMs() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := make(map[string][]float64)
	for i, s := range r.spans {
		out[s.name] = append(out[s.name], float64(self[i])/float64(time.Millisecond))
	}
	return out
}

// chromeCap bounds the span file: per-request spans of a serve workload run
// to hundreds of thousands, and the first chromeCap already show every
// phase. The per-layer metrics always fold every span.
const chromeCap = 50000

// writeChrome writes benchmark/out/trace-<workload>.json in Chrome
// trace_event format (load it in chrome://tracing or Perfetto).
func (r *recorder) writeChrome(workload string) error {
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":%q,\"spans\":%d,\"written\":%d},\"traceEvents\":[\n",
		workload, len(spans), min(len(spans), chromeCap))
	for i, s := range spans {
		if i >= chromeCap {
			break
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		layer, _, _ := strings.Cut(s.name, ".")
		fmt.Fprintf(w, "{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}",
			s.name, layer, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.track, i, s.parent, s.req)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
