package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const binDir = ".bench_build/bin"

// buildBinaries compiles the two programs the benchmark drives, from the
// checkout it runs in.
func (b *bench) buildBinaries() error {
	cmd := exec.CommandContext(b.ctx, "go", "build", "-o", binDir+"/", "./cmd/sanmapd", "./cmd/sanload")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v: %s", err, firstLine(string(out)))
	}
	return nil
}

// stateDir returns a fresh state directory under the run directory. The
// path is relative and short, so the socket inside it stays far below the
// 108-byte sun_path limit wherever the checkout lives.
func (b *bench) stateDir() (string, error) {
	b.stateSeq++
	dir := filepath.Join(b.runDir, fmt.Sprintf("s%d", b.stateSeq))
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	if sock := filepath.Join(dir, "d.sock"); len(sock) >= 100 {
		return "", fmt.Errorf("socket path %q is %d bytes, limit 100", sock, len(sock))
	}
	return dir, nil
}

// daemon is one sanmapd child process.
type daemon struct {
	cmd  *exec.Cmd
	sock string
	log  bytes.Buffer
	t0   time.Time // exec time
}

// spawn starts sanmapd on dir. The caller must stop or kill it.
func (b *bench) spawn(gen, dir string) (*daemon, error) {
	d := &daemon{sock: filepath.Join(dir, "d.sock")}
	os.Remove(d.sock) // a restart reuses the directory
	d.cmd = exec.CommandContext(b.ctx, binDir+"/sanmapd",
		"-gen", gen, "-seed", strconv.FormatInt(b.opt.seed, 10),
		"-state", dir, "-listen", "unix:"+d.sock)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	d.t0 = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn sanmapd: %w", err)
	}
	return d, nil
}

// kill ends the child on error paths; stop is the clean way.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// stop asks the daemon to exit through its own stop op and waits for it.
// The daemon's shutdown closes every connection, and that can overtake the
// stop reply on its way out: a dropped connection after the request was
// written still means the daemon is stopping, and its exit status decides.
func (d *daemon) stop(cl *client) error {
	cl.call(`{"op":"stop"}`)
	cl.close()
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("sanmapd exit: %v: %s", err, firstLine(d.log.String()))
	}
	return nil
}

// peakRSSMB reads the child's resident high-water mark; call before stop.
func (d *daemon) peakRSSMB() float64 { return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)) }

// peakRSSMB reads VmHWM of /proc/<pid>/status, in megabytes.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// startInfo is what bringing a daemon up cost, as seen from outside.
type startInfo struct {
	spawnMs float64 // exec until the socket accepts
	readyMs float64 // exec until the first ok:true route reply
	polls   int     // "no epoch committed yet" replies polled through
	first   reply   // that first answered route reply
}

const startTimeout = 60 * time.Second

// connect brings a spawned daemon to its first answered route query, polling
// every millisecond. The daemon accepts before its first epoch is published
// (ROADMAP item 0), so "no epoch committed yet" is polled through and
// counted, never treated as a failure.
func (b *bench) connect(d *daemon, routeReq string, t *track) (*client, startInfo, error) {
	var info startInfo
	deadline := d.t0.Add(startTimeout)
	t.begin("mapd.spawn", 0)
	var conn net.Conn
	for {
		var err error
		if conn, err = net.Dial("unix", d.sock); err == nil {
			break
		}
		if b.ctx.Err() != nil || time.Now().After(deadline) {
			t.end()
			return nil, info, fmt.Errorf("sanmapd never accepted on %s: %v: %s", d.sock, err, firstLine(d.log.String()))
		}
		time.Sleep(time.Millisecond)
	}
	t.end()
	info.spawnMs = sinceMs(d.t0)
	cl := newClient(conn)
	t.begin("mapd.first_answer", 0)
	defer t.end()
	for {
		raw, err := cl.call(routeReq)
		if err != nil {
			cl.close()
			return nil, info, fmt.Errorf("first query: %w: %s", err, firstLine(d.log.String()))
		}
		rep, err := parseReply(raw)
		if err != nil {
			cl.close()
			return nil, info, err
		}
		if rep.OK {
			info.readyMs = sinceMs(d.t0)
			info.first = rep
			return cl, info, nil
		}
		if rep.Error != "no epoch committed yet" || time.Now().After(deadline) {
			cl.close()
			return nil, info, fmt.Errorf("first query refused: %s", raw)
		}
		info.polls++
		time.Sleep(time.Millisecond)
	}
}

// client is a line-delimited JSON connection to one daemon. Requests are
// pre-encoded by the caller and replies come back as raw bytes, so the
// client's own cost stays out of the measured round trip.
type client struct {
	c    net.Conn
	br   *bufio.Reader
	out  []byte // the request lines of one send
	line []byte // a reply longer than br's buffer
}

func newClient(c net.Conn) *client {
	return &client{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

func dialClient(sock string) (*client, error) {
	c, err := net.Dial("unix", sock)
	if err != nil {
		return nil, err
	}
	return newClient(c), nil
}

func (cl *client) close() { cl.c.Close() }

// send writes the request lines in one write. A closed-loop reader keeps
// several requests in flight this way (pipeline, serve.go): the daemon's
// connection loop reads them as they come and answers each in order.
func (cl *client) send(reqs ...string) error {
	cl.out = cl.out[:0]
	for _, req := range reqs {
		cl.out = append(cl.out, req...)
		cl.out = append(cl.out, '\n')
	}
	_, err := cl.c.Write(cl.out)
	return err
}

// recv returns the next reply line, valid until the next recv.
func (cl *client) recv() ([]byte, error) {
	chunk, err := cl.br.ReadSlice('\n')
	if !errors.Is(err, bufio.ErrBufferFull) {
		return chunk, err
	}
	// A topo reply on a large fabric outgrows the reader's buffer.
	cl.line = append(cl.line[:0], chunk...)
	for errors.Is(err, bufio.ErrBufferFull) {
		chunk, err = cl.br.ReadSlice('\n')
		cl.line = append(cl.line, chunk...)
	}
	return cl.line, err
}

// call sends one request and returns its reply, valid until the next recv.
func (cl *client) call(req string) ([]byte, error) {
	if err := cl.send(req); err != nil {
		return nil, err
	}
	return cl.recv()
}

// reply is the union of the reply fields the harness checks.
type reply struct {
	OK      bool   `json:"ok"`
	Error   string `json:"error"`
	Epoch   uint64 `json:"epoch"`
	From    string `json:"from"`
	To      string `json:"to"`
	Route   string `json:"route"`
	Network string `json:"network"`
}

// metricsReply is the metrics op's reply; its "refused" is a count where a
// route reply's is a flag, hence a type apart from reply.
type metricsReply struct {
	OK          bool             `json:"ok"`
	Metrics     map[string]int64 `json:"metrics"`
	Refused     int64            `json:"refused"`
	FailedReads int64            `json:"failed_reads"`
}

func parseReply(raw []byte) (reply, error) {
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("bad reply %q: %w", firstLine(string(raw)), err)
	}
	return r, nil
}

// okTrue is how a successful reply reads on the wire; the closed-loop
// readers test for it instead of decoding every reply.
var okTrue = []byte(`"ok":true`)

func routeRequest(from, to string) string {
	return fmt.Sprintf(`{"op":"route","from":%q,"to":%q}`, from, to)
}
