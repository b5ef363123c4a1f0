package mapper

import (
	"testing"

	"sanmap/internal/simnet"
)

// scriptProber answers probe pairs from a script, one response per pair:
// a host entry answers the host probe; any other entry fails it and is
// consumed by the switch probe that follows, which it answers only when it
// is a switch. Only Submit and Collect are ever called.
type scriptProber struct {
	simnet.Prober
	script []simnet.ProbeResponse
	pairs  int
}

func (s *scriptProber) Submit(p simnet.Probe) simnet.ProbeResult {
	next := s.script[s.pairs]
	if p.Kind == simnet.ProbeHost {
		if next.Kind != simnet.RespHost {
			return simnet.ProbeResult{Probe: p}
		}
		s.pairs++
		return simnet.ProbeResult{Probe: p, OK: true, Host: next.Host}
	}
	s.pairs++
	return simnet.ProbeResult{Probe: p, OK: next.Kind == simnet.RespSwitch}
}

func (s *scriptProber) Collect(simnet.ProbeResult) {}

// referenceConfirm is the map tally confirmResponse used to keep: the
// winner for a first response and the samples that follow it, and how
// many of those samples it took.
func referenceConfirm(k int, first simnet.ProbeResponse, script []simnet.ProbeResponse) (simnet.ProbeResponse, int) {
	if k <= 1 || first.Kind == simnet.RespNothing {
		return first, 0
	}
	votes := map[simnet.ProbeResponse]int{first: 1}
	for samples := 1; samples < 2*k-1; samples++ {
		resp := script[samples-1]
		votes[resp]++
		if votes[resp] >= k {
			return resp, samples
		}
	}
	return simnet.ProbeResponse{Kind: simnet.RespNothing}, 2*k - 2
}

// confirm runs confirmResponse over a scripted prober and reports the
// winner and the number of probe pairs it sent.
func confirm(k int, first simnet.ProbeResponse, script []simnet.ProbeResponse) (simnet.ProbeResponse, int) {
	p := &scriptProber{script: script}
	r := &run{cfg: Config{Confirm: k}, p: p}
	return r.confirmResponse(simnet.Route{1}, first), p.pairs
}

// TestConfirmResponseVotes: K-of-N confirmation for Confirm 2 and 3 over
// host, switch and nothing responses — the table's rows, then every
// sequence over two hosts, a switch and nothing against the map tally.
func TestConfirmResponseVotes(t *testing.T) {
	h0 := simnet.ProbeResponse{Kind: simnet.RespHost, Host: "h0"}
	h1 := simnet.ProbeResponse{Kind: simnet.RespHost, Host: "h1"}
	sw := simnet.ProbeResponse{Kind: simnet.RespSwitch}
	no := simnet.ProbeResponse{Kind: simnet.RespNothing}
	type R = []simnet.ProbeResponse
	cases := []struct {
		k       int
		first   simnet.ProbeResponse
		script  R
		want    simnet.ProbeResponse
		samples int
	}{
		{2, no, R{h0, h0, h0}, no, 0},
		{2, h0, R{h0, h1, sw}, h0, 1},
		{2, h0, R{h1, sw, sw}, no, 2},
		{2, h0, R{sw, h0, sw}, h0, 2},
		{2, sw, R{no, sw, h0}, sw, 2},
		{2, sw, R{h0, h0, h0}, h0, 2},
		{3, h0, R{h0, h0, sw, sw}, h0, 2},
		{3, h0, R{h1, h1, h1, h0}, h1, 3},
		{3, sw, R{no, no, no, no}, no, 3},
		{3, sw, R{sw, no, h0, sw}, sw, 4},
		{3, h0, R{sw, h1, no, h0}, no, 4},
		{3, h1, R{h0, h1, h0, h0}, h0, 4},
	}
	for _, c := range cases {
		got, samples := confirm(c.k, c.first, c.script)
		if got != c.want || samples != c.samples {
			t.Errorf("Confirm %d first %v script %v: got %v after %d samples, want %v after %d",
				c.k, c.first, c.script, got, samples, c.want, c.samples)
		}
	}

	alphabet := R{h0, h1, sw, no}
	for _, k := range []int{2, 3} {
		n := 2*k - 2
		seqs := 1
		for i := 0; i <= n; i++ {
			seqs *= len(alphabet)
		}
		for code := 0; code < seqs; code++ {
			seq := make(R, n+1)
			for i, c := 0, code; i <= n; i, c = i+1, c/len(alphabet) {
				seq[i] = alphabet[c%len(alphabet)]
			}
			first, script := seq[0], seq[1:]
			want, wantSamples := referenceConfirm(k, first, script)
			got, samples := confirm(k, first, script)
			if got != want || samples != wantSamples {
				t.Fatalf("Confirm %d first %v script %v: got %v after %d samples, reference %v after %d",
					k, first, script, got, samples, want, wantSamples)
			}
		}
	}
}
