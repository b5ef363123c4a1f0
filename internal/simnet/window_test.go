package simnet

import (
	"errors"
	"fmt"
	"testing"

	"sanmap/internal/topology"
)

// transcript records every probe a Net issues, as the serial/pipelined
// equivalence oracle.
func transcript(sn *Net) *[]string {
	var log []string
	sn.SetProbeLog(func(kind string, _ topology.NodeID, r Route, ok bool) {
		log = append(log, fmt.Sprintf("%s %s %v", kind, r, ok))
	})
	return &log
}

// TestWindowOneMatchesSerial: a ProbeWindow with window 1 reproduces the
// serial Do transcript byte for byte — same probes in the same
// order, same message counters, same virtual clock.
func TestWindowOneMatchesSerial(t *testing.T) {
	serial, sh0, _ := probeNet(t)
	piped, ph0, _ := probeNet(t)
	slog, plog := transcript(serial), transcript(piped)

	serial.Do(sh0, Probe{Kind: ProbeHost, Route: Route{3, 3}})
	serial.Do(sh0, Probe{Kind: ProbeHost, Route: Route{1}})
	serial.Do(sh0, Probe{Kind: ProbeSwitch, Route: Route{3}})
	serial.Do(sh0, Probe{Kind: ProbeSwitch, Route: Route{3, 3}})
	serial.Do(sh0, Probe{Kind: ProbeRaw, Route: Route{3, 1, -1, -3}})

	w := NewProbeWindow(piped.Endpoint(ph0), WindowConfig{Window: 1})
	w.Do([]Probe{
		{Kind: ProbeHost, Route: Route{3, 3}},
		{Kind: ProbeHost, Route: Route{1}},
		{Kind: ProbeSwitch, Route: Route{3}},
		{Kind: ProbeSwitch, Route: Route{3, 3}},
		{Kind: ProbeRaw, Route: Route{3, 1, -1, -3}},
	})

	if fmt.Sprint(*slog) != fmt.Sprint(*plog) {
		t.Errorf("transcripts differ:\nserial:    %v\npipelined: %v", *slog, *plog)
	}
	if serial.Clock() != piped.Clock() {
		t.Errorf("clocks differ: serial %v, pipelined %v", serial.Clock(), piped.Clock())
	}
	if serial.Stats() != piped.Stats() {
		t.Errorf("counters differ: serial %+v, pipelined %+v", serial.Stats(), piped.Stats())
	}
}

// TestWindowOverlapsTimeouts: with W probes in flight, W misses cost about
// one timeout instead of W — §5.2's dominant cost term, overlapped.
func TestWindowOverlapsTimeouts(t *testing.T) {
	misses := []Probe{
		{Kind: ProbeHost, Route: Route{1}},
		{Kind: ProbeHost, Route: Route{2}},
		{Kind: ProbeHost, Route: Route{4}},
		{Kind: ProbeHost, Route: Route{5}},
		{Kind: ProbeHost, Route: Route{-1}},
		{Kind: ProbeHost, Route: Route{-2}},
		{Kind: ProbeHost, Route: Route{-3}},
		{Kind: ProbeHost, Route: Route{6}},
	}
	serial, sh0, _ := probeNet(t)
	ws := NewProbeWindow(serial.Endpoint(sh0), WindowConfig{Window: 1})
	ws.Do(misses)

	piped, ph0, _ := probeNet(t)
	wp := NewProbeWindow(piped.Endpoint(ph0), WindowConfig{Window: 8})
	wp.Do(misses)

	tm := serial.Timing()
	wantSerial := 8 * (tm.HostOverhead + tm.ResponseTimeout)
	if serial.Clock() != wantSerial {
		t.Errorf("serial clock %v, want %v", serial.Clock(), wantSerial)
	}
	wantPiped := 8*tm.HostOverhead + tm.ResponseTimeout
	if piped.Clock() != wantPiped {
		t.Errorf("pipelined clock %v, want %v", piped.Clock(), wantPiped)
	}
	if 2*piped.Clock() >= serial.Clock() {
		t.Errorf("pipelining did not halve the batch time: %v vs %v",
			piped.Clock(), serial.Clock())
	}
	if got := wp.Stats().MaxInFlight; got != 8 {
		t.Errorf("MaxInFlight = %d, want 8", got)
	}
	if got := wp.Stats().TimeoutCost; got != 8*(tm.HostOverhead+tm.ResponseTimeout) {
		t.Errorf("TimeoutCost = %v, want %v", got, 8*(tm.HostOverhead+tm.ResponseTimeout))
	}
}

// dropFirst fails the first host probe (after paying its real cost), then
// behaves normally — a deterministic single-loss transport.
type dropFirst struct {
	Prober
	dropped bool
}

func (d *dropFirst) Submit(p Probe) ProbeResult {
	r := d.Prober.Submit(p)
	if p.Kind == ProbeHost && !d.dropped {
		d.dropped = true
		return ProbeResult{Probe: p, Err: ErrTimeout, Done: r.Done, Latency: r.Latency}
	}
	return r
}

// TestProbeErrorClassification: the sentinel errors distinguish the three
// failure classes.
func TestProbeErrorClassification(t *testing.T) {
	sn, h0, h1 := probeNet(t)
	ep := sn.Endpoint(h0)
	do := func(p Probe) ProbeResult { return Do(ep, p) }
	if r := do(Probe{Kind: ProbeHost, Route: Route{1}}); !errors.Is(r.Err, ErrTimeout) {
		t.Errorf("dead-end probe: err = %v, want ErrTimeout", r.Err)
	}
	sn.SetResponder(h1, false)
	if r := do(Probe{Kind: ProbeHost, Route: Route{3, 3}}); !errors.Is(r.Err, ErrNoResponder) {
		t.Errorf("silent-host probe: err = %v, want ErrNoResponder", r.Err)
	}
	if r := do(Probe{Kind: ProbeKind(99)}); !errors.Is(r.Err, ErrUnsupported) {
		t.Errorf("bogus kind: err = %v, want ErrUnsupported", r.Err)
	}
}

// TestWindowMissIsTheAnswer drives one window through every outcome class
// at once — a probe whose response is dropped, a dead end that times out,
// and a plain success — and checks that a miss comes back as a miss: the
// window hands each probe to the transport once and never asks again.
func TestWindowMissIsTheAnswer(t *testing.T) {
	sn, h0, _ := probeNet(t)
	w := NewProbeWindow(&dropFirst{Prober: sn.Endpoint(h0)}, WindowConfig{Window: 4})

	res := w.Do([]Probe{
		{Kind: ProbeHost, Route: Route{3, 3}}, // response dropped
		{Kind: ProbeHost, Route: Route{1}},    // dead end: times out
		{Kind: ProbeSwitch, Route: Route{3}},  // succeeds outright
	})
	if res[0].OK || !errors.Is(res[0].Err, ErrTimeout) {
		t.Fatalf("dropped probe: %+v", res[0])
	}
	if res[1].OK || !errors.Is(res[1].Err, ErrTimeout) {
		t.Fatalf("dead-end probe: %+v", res[1])
	}
	if !res[2].OK {
		t.Fatalf("switch probe: %+v", res[2])
	}
	if st := w.Stats(); st.Submitted != 3 || st.Retries != 0 {
		t.Fatalf("after mixed batch: %+v", st)
	}
	if sn.Stats().HostProbes != 2 {
		t.Errorf("transport saw %d host probes, want 2", sn.Stats().HostProbes)
	}
}
