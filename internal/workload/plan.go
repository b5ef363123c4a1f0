package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"time"

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
	rng       *rand.Rand
	pattern   Pattern
	hosts     []topology.NodeID
	self      topology.NodeID
	hot, perm topology.NodeID
	gap       time.Duration // mean time between offered worms
	t         time.Duration // when the next draw is offered
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
	// A tiny load makes a gap past the largest Duration; a plain conversion
	// would wrap it negative and offer the most traffic instead of the least.
	gap := time.Duration(math.MaxInt64)
	if ns := float64(cfg.msgBytes()) * float64(cfg.ByteTime) / cfg.Load; ns < math.MaxInt64 {
		gap = time.Duration(ns)
	}
	if gap <= 0 {
		gap = time.Nanosecond
	}
	global := rand.New(faults.NewSource(cfg.Seed))
	hot := hosts[global.Intn(len(hosts))]
	out := make([]*stream, len(hosts))
	for i, h := range hosts {
		rng := rand.New(faults.NewSource(cfg.Seed + uint64(i+1)*0x9e3779b97f4a7c15))
		out[i] = &stream{
			rng: rng, pattern: cfg.Pattern,
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
// itself as destination is skipped, its gap still spent. A gap that would
// carry the clock past the largest Duration leaves it there, so the stream
// ends at any horizon instead of wrapping back to the past.
func (s *stream) next() Send {
	for {
		at, dst := s.t, s.pickDest()
		jitter := -math.Log(1 - s.rng.Float64())
		if step := float64(s.gap) * jitter; step < float64(math.MaxInt64-s.t) {
			s.t += time.Duration(step)
		} else {
			s.t = math.MaxInt64
		}
		if dst != s.self {
			return Send{At: at, Dst: dst}
		}
	}
}

// hotFraction is the share of a Hotspot host's traffic aimed at the hotspot.
const hotFraction = 0.5

func (s *stream) pickDest() topology.NodeID {
	switch s.pattern {
	case Hotspot:
		if s.rng.Float64() < hotFraction && s.hot != s.self {
			return s.hot
		}
	case Permutation:
		return s.perm
	}
	return s.hosts[s.rng.Intn(len(s.hosts))]
}

// drain draws the stream's sends before the horizon into one slice sized
// for n of them.
func (s *stream) drain(horizon time.Duration, n int) []Send {
	out := make([]Send, 0, n)
	for x := s.next(); x.At < horizon; x = s.next() {
		out = append(out, x)
	}
	return out
}

// expectedSends sizes a host's schedule: the offers a Poisson stream with
// mean gap makes before the horizon, plus four standard deviations, so a
// drain rarely grows its slice. It is capped, so a long horizon at a high
// load grows the slice as it fills instead of reserving it up front.
func expectedSends(horizon, gap time.Duration) int {
	mean := max(0, float64(horizon)/float64(gap))
	return int(min(mean+4*math.Sqrt(mean)+16, 1<<20))
}

// NewPlan materialises a plan over the network's hosts: every host's stream
// drained to cfg.Duration. Streams are independent, so contiguous blocks of
// hosts are drawn concurrently, one block per GOMAXPROCS, with the same
// result as drawing them in order.
func NewPlan(net *topology.Network, cfg PlanConfig) *Plan {
	p := &Plan{Pattern: cfg.Pattern, Seed: cfg.Seed, MsgBytes: cfg.msgBytes(), Hosts: net.Hosts()}
	p.Sends = make([][]Send, len(p.Hosts))
	streams := newStreams(p.Hosts, cfg)
	if len(streams) == 0 {
		return p
	}
	n := expectedSends(cfg.Duration, streams[0].gap)
	blocks := min(runtime.GOMAXPROCS(0), len(streams))
	var wg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := b * len(streams) / blocks; i < (b+1)*len(streams)/blocks; i++ {
				p.Sends[i] = streams[i].drain(cfg.Duration, n)
			}
		}()
	}
	wg.Wait()
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

// Merge flattens the per-host schedules into the plan's one injection
// order: ascending time, same-instant sends by host index, then by position
// in the host's schedule. That order is a stable sort by time of the
// schedules laid end to end in host order, and Merge is that sort: a radix
// sort on each send's offset from the plan's first instant. One counting
// pass over the schedules, in host order, places every send in one of 1024
// time windows by the offset's top bits; a schedule ascends, so each host's
// writes sweep the output once, in order. Each window, small enough to stay
// in cache, is then LSD-sorted on the low bits, a byte per pass. Merge sorts
// afresh on every call: replay the result as often as needed rather than
// merging again.
func (p *Plan) Merge() []Injection {
	// Each schedule ascends, so its ends bound the plan's times.
	first, last := time.Duration(math.MaxInt64), time.Duration(math.MinInt64)
	for _, sends := range p.Sends {
		if len(sends) > 0 {
			first, last = min(first, sends[0].At), max(last, sends[len(sends)-1].At)
		}
	}
	base := uint64(first)
	low := max(0, bits.Len64(uint64(last)-base)-windowBits)

	// starts[w] is window w's first slot in the merged order.
	var starts [1<<windowBits + 1]int
	for _, sends := range p.Sends {
		for _, s := range sends {
			starts[(uint64(s.At)-base)>>low+1]++
		}
	}
	widest := 0
	for w := 1; w < len(starts); w++ {
		widest = max(widest, starts[w])
		starts[w] += starts[w-1]
	}
	out := make([]Injection, starts[len(starts)-1])
	next := starts
	for i, sends := range p.Sends {
		for _, s := range sends {
			w := (uint64(s.At) - base) >> low
			out[next[w]] = Injection{At: s.At, Src: int32(i), Dst: s.Dst}
			next[w]++
		}
	}
	if low == 0 {
		return out
	}

	// Within a window the sends differ in the low bits alone.
	tmp := make([]Injection, widest)
	for w := 0; w+1 < len(starts); w++ {
		win := out[starts[w]:starts[w+1]]
		if len(win) < 2 {
			continue
		}
		src, dst := win, tmp[:len(win)]
		for shift := 0; shift < low; shift += 8 {
			var at [256]int
			for _, in := range src {
				at[byte((uint64(in.At)-base)>>shift)]++
			}
			sum := 0
			for b, n := range at {
				at[b], sum = sum, sum+n
			}
			for _, in := range src {
				b := byte((uint64(in.At) - base) >> shift)
				dst[at[b]] = in
				at[b]++
			}
			src, dst = dst, src
		}
		copy(win, src)
	}
	return out
}

// windowBits is how many top bits of a send's offset pick its Merge window.
// Ten measured fastest on a 128-host, 823 k-send plan (2-CPU 2.1 GHz Xeon
// VM): fewer windows fall out of cache, more scatter the first pass too
// widely.
const windowBits = 10

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
