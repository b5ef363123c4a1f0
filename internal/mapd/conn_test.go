package mapd

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipeClient speaks the wire protocol raw over a unix socket, so a test
// decides what goes into each write. Every read carries a deadline: a reply
// the daemon sits on while it waits for input fails the test instead of
// hanging it.
type pipeClient struct {
	t  *testing.T
	c  *net.UnixConn
	br *bufio.Reader
}

const replyDeadline = 10 * time.Second

func startUnixServer(t *testing.T) (*Server, func()) {
	t.Helper()
	dir := t.TempDir()
	srv, join := startServer(t, Config{Gen: "now-c", Seed: 1, StateDir: dir, Listen: "unix:" + filepath.Join(dir, "sock")})
	waitSnap(t, srv)
	return srv, join
}

func dialPipe(t *testing.T, srv *Server) *pipeClient {
	t.Helper()
	c, err := net.Dial("unix", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &pipeClient{t: t, c: c.(*net.UnixConn), br: bufio.NewReader(c)}
}

// write sends text in one write call.
func (p *pipeClient) write(text string) {
	p.t.Helper()
	if _, err := p.c.Write([]byte(text)); err != nil {
		p.t.Fatal(err)
	}
}

// reply reads one reply line, newline included.
func (p *pipeClient) reply() string {
	p.t.Helper()
	p.c.SetReadDeadline(time.Now().Add(replyDeadline))
	line, err := p.br.ReadString('\n')
	if err != nil {
		p.t.Fatalf("reply: %v (got %q)", err, line)
	}
	return line
}

// eof requires the daemon to have closed the connection with nothing more
// on it.
func (p *pipeClient) eof() {
	p.t.Helper()
	p.c.SetReadDeadline(time.Now().Add(replyDeadline))
	if rest, err := io.ReadAll(p.br); err != nil || len(rest) != 0 {
		p.t.Fatalf("after the last reply: %q, %v", rest, err)
	}
}

// routeLines is n distinct route queries over the snapshot's hosts, and what
// the daemon replies to each while that snapshot is served.
func routeLines(srv *Server, n int) (lines, replies []string) {
	snap := srv.Snapshot()
	hosts := snap.Net.Hosts()
	for i := 0; i < n; i++ {
		from, to := snap.Net.NameOf(hosts[i%len(hosts)]), snap.Net.NameOf(hosts[(i*7+1)%len(hosts)])
		line := fmt.Sprintf(`{"op":"route","from":%q,"to":%q}`, from, to)
		want, _ := appendRoute(nil, snap, []byte(from), []byte(to))
		lines, replies = append(lines, line), append(replies, string(want))
	}
	return lines, replies
}

// TestPipelinedBatches: however a client cuts its requests into writes, the
// replies arrive complete and in order, and never later than the moment the
// daemon runs out of requests to answer.
func TestPipelinedBatches(t *testing.T) {
	srv, join := startUnixServer(t)
	defer join()
	lines, replies := routeLines(srv, 256)
	p := dialPipe(t, srv)

	// Closed loop, growing batches: each is one write, and the next is not
	// sent until the last reply of this one is in.
	for at, size := 0, 1; at+size <= len(lines); at, size = at+size, size*2 {
		p.write(strings.Join(lines[at:at+size], "\n") + "\n")
		for i := at; i < at+size; i++ {
			if got := p.reply(); got != replies[i] {
				t.Fatalf("batch of %d, reply %d: got %s want %s", size, i-at, got, replies[i])
			}
		}
	}

	// A request cut in two: nothing to answer after the first piece, so
	// the replies before it must already be out.
	cut := len(lines[2]) / 2
	p.write(lines[0] + "\n" + lines[1] + "\n" + lines[2][:cut])
	for i := 0; i < 2; i++ {
		if got := p.reply(); got != replies[i] {
			t.Fatalf("before the cut, reply %d: got %s want %s", i, got, replies[i])
		}
	}
	p.write(lines[2][cut:] + "\n\n \r\n") // blank lines are skipped, not answered
	if got := p.reply(); got != replies[2] {
		t.Fatalf("after the cut: got %s want %s", got, replies[2])
	}

	// A batch bigger than the daemon's read buffer and, in replies, bigger
	// than what it holds back: the client must drain while it sends.
	const big = 4096
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		var batch bytes.Buffer
		for i := 0; i < big; i++ {
			batch.WriteString(lines[i%len(lines)] + "\n")
		}
		p.c.Write(batch.Bytes())
	}()
	for i := 0; i < big; i++ {
		if got := p.reply(); got != replies[i%len(lines)] {
			t.Fatalf("big batch, reply %d: got %s want %s", i, got, replies[i%len(lines)])
		}
	}
	<-sent
}

// TestSlowOpInsideBatch: the first load query of a snapshot runs the replay,
// milliseconds of it, between two route queries of the same write.
func TestSlowOpInsideBatch(t *testing.T) {
	srv, join := startUnixServer(t)
	defer join()
	lines, replies := routeLines(srv, 2)
	p := dialPipe(t, srv)
	p.write(lines[0] + "\n" + `{"op":"load"}` + "\n" + lines[1] + "\n" + `{"op":"load"}` + "\n")
	if got := p.reply(); got != replies[0] {
		t.Fatalf("before load: got %s want %s", got, replies[0])
	}
	cold := p.reply()
	if !strings.Contains(cold, `"ok":true,"op":"load"`) {
		t.Fatalf("load: %s", cold)
	}
	if got := p.reply(); got != replies[1] {
		t.Fatalf("after load: got %s want %s", got, replies[1])
	}
	if warm := p.reply(); warm != cold {
		t.Fatalf("second load differs:\n%s%s", cold, warm)
	}
}

// TestHalfCloseAfterLastRequest: a client that shuts its sending side right
// behind a batch, whose last request lacks even the newline, still gets
// every reply, and then end of stream.
func TestHalfCloseAfterLastRequest(t *testing.T) {
	srv, join := startUnixServer(t)
	defer join()
	lines, replies := routeLines(srv, 8)
	p := dialPipe(t, srv)
	p.write(strings.Join(lines, "\n"))
	if err := p.c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	for i, want := range replies {
		if got := p.reply(); got != want {
			t.Fatalf("reply %d: got %s want %s", i, got, want)
		}
	}
	p.eof()
}

// TestStopLastInBatch: the replies ahead of a stop, and the stop's own, are
// on the socket before the server goes down.
func TestStopLastInBatch(t *testing.T) {
	srv, join := startUnixServer(t)
	lines, replies := routeLines(srv, 8)
	p := dialPipe(t, srv)
	p.write(strings.Join(lines, "\n") + "\n" + `{"op":"stop"}` + "\n")
	for i, want := range replies {
		if got := p.reply(); got != want {
			t.Fatalf("reply %d: got %s want %s", i, got, want)
		}
	}
	if got := p.reply(); got != `{"ok":true,"op":"stop"}`+"\n" {
		t.Fatalf("stop reply: %s", got)
	}
	p.eof()
	join() // Run has returned, or returns now
}

// TestLineTooLong: a request line over the limit is answered, counted and
// the connection closed; one exactly at it is still served.
func TestLineTooLong(t *testing.T) {
	srv, join := startUnixServer(t)
	defer join()

	p := dialPipe(t, srv)
	var writes sync.WaitGroup
	defer writes.Wait()
	send := func(text []byte) { // more than a socket buffer: the reply is read meanwhile
		writes.Add(1)
		go func() {
			defer writes.Done()
			p.c.Write(text)
		}()
	}
	pad := strings.Repeat(" ", maxLine-len(`{"op":"ping"}`)-1)
	send([]byte(`{"op":"ping"}` + pad + "\n")) // exactly maxLine with its newline
	if got := p.reply(); got != `{"epoch":1,"ok":true,"op":"ping"}`+"\n" {
		t.Fatalf("line at the limit: %s", got)
	}

	queries, failedReads := srv.queries.Load(), srv.failedReads.Load()
	// One byte more than fits before a newline. The daemon has read all of
	// it when it gives up, so its close is clean; with more in flight the
	// reply would be followed by a reset instead of end of stream.
	send(bytes.Repeat([]byte("x"), maxLine))
	if got := p.reply(); got != `{"error":"bad request: line too long","ok":false}`+"\n" {
		t.Fatalf("line over the limit: %s", got)
	}
	p.eof()
	if q, f := srv.queries.Load()-queries, srv.failedReads.Load()-failedReads; q != 1 || f != 1 {
		t.Fatalf("oversized line counted %d queries, %d failed reads", q, f)
	}
}

// TestPipeliningBesideInject is the contract under the race detector: two
// connections batch route queries while a third injects a cut, so replies
// are built from whichever snapshot is current and the lazy reply texts of
// a fresh one are raced for.
func TestPipeliningBesideInject(t *testing.T) {
	srv, join := startUnixServer(t)
	defer join()
	lines, _ := routeLines(srv, 64)
	batch := strings.Join(lines, "\n") + "\n" + `{"op":"epoch"}` + "\n" + `{"op":"metrics"}` + "\n" + `{"op":"topo"}` + "\n"

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		p := dialPipe(t, srv)
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					if n > 0 {
						return
					}
				default:
				}
				if _, err := p.c.Write([]byte(batch)); err != nil {
					t.Error(err)
					return
				}
				p.c.SetReadDeadline(time.Now().Add(replyDeadline))
				for i := 0; i < len(lines)+3; i++ {
					got, err := p.br.ReadBytes('\n')
					if err != nil {
						t.Errorf("batch %d reply %d: %v", n, i, err)
						return
					}
					rep := decodeReply(t, got)
					if i < len(lines) {
						// A route reply echoes its request's endpoints.
						want := fmt.Sprintf(`{"op":"route","from":%q,"to":%q}`, rep["from"], rep["to"])
						if rep["op"] != "route" || want != lines[i] {
							t.Errorf("batch %d reply %d out of order: %s", n, i, got)
							return
						}
					} else if rep["ok"] != true {
						t.Errorf("batch %d reply %d: %s", n, i, got)
					}
				}
			}
		}()
	}

	inj, err := dialServer(t, srv).Call(map[string]any{"op": "inject", "spec": "seed=5,cuts=2"})
	close(stop)
	readers.Wait()
	if err != nil || inj["ok"] != true || inj["epoch"].(float64) < 2 {
		t.Fatalf("inject: %v %v", inj, err)
	}
	if srv.failedReads.Load() != 0 {
		t.Fatalf("%d failed reads beside the heal", srv.failedReads.Load())
	}
}
