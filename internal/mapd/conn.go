package mapd

import (
	"bufio"
	"bytes"
	"errors"
	"net"
)

const (
	// maxLine is the longest request line accepted, newline included.
	maxLine = 1 << 20
	// readSize is a connection's read buffer: what one read can take in,
	// and several pipelined batches of route queries fit.
	readSize = 16 << 10
	// flushAt bounds how many reply bytes a connection holds back while
	// more requests are waiting; a longer batch is written out in pieces.
	flushAt = 64 << 10
)

var errLineTooLong = errors.New("line too long")

// acceptLoop admits connections until the listener closes at shutdown.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(c) {
			c.Close()
			return
		}
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn answers one client's queries. Reads hit only the atomic
// snapshot; state changes are forwarded to the world loop.
//
// Replies collect in out and go to the socket in one write when the next
// read would block, that is when no complete request line is left in the
// read buffer. A client that pipelines a batch gets it answered with one
// read and one write; a client that waits for each reply never waits on
// a reply the daemon is sitting on.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer s.untrack(c)
	br := bufio.NewReaderSize(c, readSize)
	var out, spill []byte
	flush := func() bool {
		if len(out) == 0 {
			return true
		}
		_, err := c.Write(out)
		out = out[:0]
		return err == nil
	}
	for {
		if len(out) >= flushAt || !lineBuffered(br) {
			if !flush() {
				return
			}
		}
		var line []byte
		var err error
		line, spill, err = readLine(br, spill)
		if errors.Is(err, errLineTooLong) {
			// The rest of the line is not worth reading.
			out = appendFailure(out, "", "bad request: line too long")
			s.count(failed)
			flush()
			return
		}
		if line = bytes.TrimSpace(line); len(line) > 0 {
			var stop bool
			if out, stop = s.Answer(out, line); stop {
				// Only now: shutdown closes this connection, and the reply
				// must be on it first.
				if !flush() {
					return
				}
				s.Close()
			}
		}
		if err != nil { // end of input, a last unterminated line included
			flush()
			return
		}
	}
}

// lineBuffered reports whether the next readLine can return without
// reading from the connection.
func lineBuffered(br *bufio.Reader) bool {
	buffered, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(buffered, '\n') >= 0
}

// readLine returns the next line, newline included unless input ended
// without one. The line lives in the reader's buffer, or in spill when it
// outgrew that; either way it is good until the next call, which takes
// spill back for reuse.
func readLine(br *bufio.Reader, spill []byte) (line, _ []byte, err error) {
	line, err = br.ReadSlice('\n')
	if !errors.Is(err, bufio.ErrBufferFull) {
		return line, spill, err
	}
	spill = append(spill[:0], line...)
	for errors.Is(err, bufio.ErrBufferFull) && len(spill) < maxLine {
		line, err = br.ReadSlice('\n')
		spill = append(spill, line...)
	}
	if errors.Is(err, bufio.ErrBufferFull) || len(spill) > maxLine {
		return nil, spill, errLineTooLong
	}
	return spill, spill, err
}

// Answer appends the reply to one non-empty request line to dst and counts
// the query: all a connection does with a line, without the socket. stop
// reports that the request's op was "stop", which is the caller's to act on
// (Close) once the reply has reached the client.
func (s *Server) Answer(dst, line []byte) (_ []byte, stop bool) {
	req, err := decodeRequest(line)
	res := failed
	if err != nil {
		dst = appendFailure(dst, "", "bad request: "+err.Error())
	} else {
		dst, res = s.handle(dst, req)
	}
	s.count(res)
	return dst, string(req.Op) == "stop"
}

// count books one answered query under its outcome.
func (s *Server) count(res outcome) {
	s.queries.Add(1)
	switch res {
	case refused:
		s.refused.Add(1)
	case failed:
		s.failedReads.Add(1)
	}
}
