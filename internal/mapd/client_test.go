package mapd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
)

// Client is a minimal line-delimited JSON client for the sanmapd
// front-end, used by the tests.
type Client struct {
	c  net.Conn
	br *bufio.Reader
}

// Dial connects to a -listen address (same spec grammar: "unix:PATH", a
// path, or host:port).
func Dial(listen string) (*Client, error) {
	nw, addr := splitListen(listen)
	c, err := net.Dial(nw, addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c, br: bufio.NewReader(c)}, nil
}

// Call sends one request and decodes the daemon's reply.
func (cl *Client) Call(req map[string]any) (map[string]any, error) {
	line, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if _, err := cl.c.Write(append(line, '\n')); err != nil {
		return nil, fmt.Errorf("mapd: call: %w", err)
	}
	resp, err := cl.br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("mapd: reply: %w", err)
	}
	var out map[string]any
	if err := json.Unmarshal(resp, &out); err != nil {
		return nil, fmt.Errorf("mapd: reply: %w", err)
	}
	return out, nil
}

// Close closes the connection.
func (cl *Client) Close() error { return cl.c.Close() }
