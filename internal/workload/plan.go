package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"sanmap/internal/eventq"
	"sanmap/internal/faults"
	"sanmap/internal/topology"
)

// Send is one scheduled worm injection: a virtual time and a destination.
type Send struct {
	At  time.Duration
	Dst topology.NodeID
}

// PlanConfig parameterises a traffic mix. It carries no *rand.Rand: every
// stochastic choice derives from Seed and the sending host's index alone,
// so two hosts' schedules can be drawn in any order — or concurrently — and
// still come out byte-identical.
type PlanConfig struct {
	Pattern Pattern
	// Load is the offered load per host as a fraction of link bandwidth
	// (0..1): a host offers MsgBytes every MsgBytes×ByteTime/Load on
	// average.
	Load float64
	// MsgBytes is the payload size per worm (default 512).
	MsgBytes int
	// HotFraction is the share of traffic aimed at the hotspot (Hotspot
	// pattern only; default 0.5).
	HotFraction float64
	// Duration is the injection horizon: sends are scheduled in
	// [0, Duration).
	Duration time.Duration
	// ByteTime is the per-byte link serialisation time the gap derives
	// from (use the transport's Timing.ByteTime).
	ByteTime time.Duration
	// Seed drives every stochastic decision.
	Seed uint64
}

// Plan is a fully materialised, replayable traffic schedule: for every
// sending host, the precomputed injection times and destinations. A Plan is
// a pure function of (host set, PlanConfig) — the same inputs always yield
// the same plan, independent of goroutine scheduling — which is what makes
// load replays comparable across healthy and healed maps: the offered
// traffic is held fixed while only the network underneath changes.
type Plan struct {
	Pattern  Pattern
	Seed     uint64
	MsgBytes int
	// Hosts lists the senders in topology insertion order; Sends[i] is
	// host i's schedule in ascending time order.
	Hosts []topology.NodeID
	Sends [][]Send
}

// stream is one host's traffic schedule, drawn on demand, and the only
// place a destination or a gap is ever drawn: NewPlan drains it to the
// horizon, live cross-traffic (MapUnderTraffic) draws from it for as long
// as its mapper runs.
type stream struct {
	rng         *rand.Rand
	pattern     Pattern
	hotFraction float64
	hosts       []topology.NodeID
	self        topology.NodeID
	hot, perm   topology.NodeID
	gap         time.Duration // mean time between offered worms
	t           time.Duration // when the next draw is offered
}

// newStreams returns one stream per host, or nil when the mix offers no
// traffic. Host i's generator is the seed advanced by a per-host
// golden-ratio offset, per the faults.NewSource convention, so schedules
// are independent of the order hosts are drawn in. Global choices (the
// hotspot) come from the bare seed's stream; they must not depend on any
// host's draw position.
func newStreams(hosts []topology.NodeID, cfg PlanConfig) []*stream {
	if len(hosts) < 2 || cfg.Load <= 0 {
		return nil
	}
	if cfg.HotFraction == 0 {
		cfg.HotFraction = 0.5
	}
	gap := time.Duration(float64(cfg.msgBytes()) * float64(cfg.ByteTime) / cfg.Load)
	if gap <= 0 {
		gap = time.Nanosecond
	}
	global := rand.New(faults.NewSource(cfg.Seed))
	hot := hosts[global.Intn(len(hosts))]
	out := make([]*stream, len(hosts))
	for i, h := range hosts {
		rng := rand.New(faults.NewSource(cfg.Seed + uint64(i+1)*0x9e3779b97f4a7c15))
		out[i] = &stream{
			rng: rng, pattern: cfg.Pattern, hotFraction: cfg.HotFraction,
			hosts: hosts, self: h, hot: hot,
			perm: hosts[(i+1+rng.Intn(len(hosts)-1))%len(hosts)],
			gap:  gap,
		}
	}
	return out
}

// msgBytes is the payload size with its default applied.
func (cfg PlanConfig) msgBytes() int {
	if cfg.MsgBytes <= 0 {
		return 512
	}
	return cfg.MsgBytes
}

// next draws the host's next send. Offers are Poisson-like (exponential
// gaps around the mean, deterministic per seed); one that draws the host
// itself as destination is skipped, its gap still spent.
func (s *stream) next() Send {
	for {
		at, dst := s.t, s.pickDest()
		jitter := -math.Log(1 - s.rng.Float64())
		s.t += time.Duration(float64(s.gap) * jitter)
		if dst != s.self {
			return Send{At: at, Dst: dst}
		}
	}
}

func (s *stream) pickDest() topology.NodeID {
	switch s.pattern {
	case Hotspot:
		if s.rng.Float64() < s.hotFraction && s.hot != s.self {
			return s.hot
		}
	case Permutation:
		return s.perm
	}
	return s.hosts[s.rng.Intn(len(s.hosts))]
}

// NewPlan materialises a plan over the network's hosts: every host's stream
// drained to cfg.Duration.
func NewPlan(net *topology.Network, cfg PlanConfig) *Plan {
	p := &Plan{Pattern: cfg.Pattern, Seed: cfg.Seed, MsgBytes: cfg.msgBytes(), Hosts: net.Hosts()}
	p.Sends = make([][]Send, len(p.Hosts))
	for i, st := range newStreams(p.Hosts, cfg) {
		for s := st.next(); s.At < cfg.Duration; s = st.next() {
			p.Sends[i] = append(p.Sends[i], s)
		}
	}
	return p
}

// TotalSends counts the scheduled injections across all hosts.
func (p *Plan) TotalSends() int {
	n := 0
	for _, s := range p.Sends {
		n += len(s)
	}
	return n
}

// Injection is one worm of a merged schedule: when it is sent, by which
// plan host (an index into Plan.Hosts) and to whom.
type Injection struct {
	At  time.Duration
	Src int32
	Dst topology.NodeID
}

// pending is a host's next unmerged send: its time, the host's index and
// the position in that host's schedule.
type pending struct {
	at        time.Duration
	host, seq int32
}

// pendingLess orders by (time, host). The queue never holds two sends of one
// host, so that is a strict total order and the merged schedule a pure
// function of the plan.
func pendingLess(a, b pending) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.host < b.host
}

// Merge flattens the per-host schedules into the plan's one injection
// order: ascending time, same-instant sends by host index, then by position
// in the host's schedule. It is a k-way merge — the queue holds each host's
// next send, and the earliest is replaced in place by its successor — done
// afresh on every call: replay the result as often as needed rather than
// merging again.
func (p *Plan) Merge() []Injection {
	out := make([]Injection, 0, p.TotalSends())
	q := eventq.New(pendingLess)
	q.Reserve(len(p.Hosts))
	for i := range p.Hosts {
		if sends := p.Sends[i]; len(sends) > 0 {
			q.Push(pending{at: sends[0].At, host: int32(i)})
		}
	}
	for q.Len() > 0 {
		v, _ := q.Peek()
		sends := p.Sends[v.host]
		out = append(out, Injection{At: v.at, Src: v.host, Dst: sends[v.seq].Dst})
		if next := v.seq + 1; int(next) < len(sends) {
			q.Set(0, pending{at: sends[next].At, host: v.host, seq: next})
		} else {
			q.Pop()
		}
	}
	return out
}

// Matrix is an aggregated demand matrix: payload bytes offered between
// ordered host pairs. It is the "measured traffic matrix" interface between
// workload replay and placement: loadsim produces one from delivered
// traffic, place consumes one as its communication-cost input.
type Matrix struct {
	Hosts []topology.NodeID
	// Bytes[si][di] is the payload volume from Hosts[si] to Hosts[di].
	Bytes [][]int64
}

// NewMatrix returns a zeroed demand matrix over the given hosts.
func NewMatrix(hosts []topology.NodeID) *Matrix {
	m := &Matrix{Hosts: append([]topology.NodeID(nil), hosts...)}
	m.Bytes = make([][]int64, len(m.Hosts))
	for i := range m.Bytes {
		m.Bytes[i] = make([]int64, len(m.Hosts))
	}
	return m
}

// Matrix aggregates the plan's offered traffic into a demand matrix.
func (p *Plan) Matrix() *Matrix {
	m := NewMatrix(p.Hosts)
	idx := make(map[topology.NodeID]int, len(p.Hosts))
	for i, h := range p.Hosts {
		idx[h] = i
	}
	for si, sends := range p.Sends {
		for _, s := range sends {
			m.Bytes[si][idx[s.Dst]] += int64(p.MsgBytes)
		}
	}
	return m
}

// Write serialises the plan in the sanplan v1 text format (see
// WORKLOADS.md): a header, then per host one "host <name> <sends>" line
// followed by one "send <at_ns> <dst>" line per scheduled injection, and a
// trailing "end". Hosts appear in plan order, sends in time order, so equal
// plans serialise byte-identically.
func (p *Plan) Write(net *topology.Network, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "sanplan v1\npattern %s\nseed %d\nmsg %d\n", p.Pattern, p.Seed, p.MsgBytes)
	for i, h := range p.Hosts {
		fmt.Fprintf(bw, "host %s %d\n", net.NameOf(h), len(p.Sends[i]))
		for _, s := range p.Sends[i] {
			fmt.Fprintf(bw, "send %d %s\n", int64(s.At), net.NameOf(s.Dst))
		}
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}
