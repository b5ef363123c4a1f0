package loadsim

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"time"

	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

// LinkLoad is one directed link's congestion summary.
type LinkLoad struct {
	Wire  int
	FromA bool // traversal direction: true = A-end toward B-end
	// From and To are the link's two ends in traversal order, as they were
	// when the engine compiled its routes — a report outlives the wire.
	From, To topology.End
	// Busy is the total occupancy reserved on the link.
	Busy time.Duration
	// Wait is the total head-blocking time worms spent queued for it.
	Wait time.Duration
	// Worms counts traversals.
	Worms int64
	// UtilPPM is Busy over the replay makespan, in parts per million.
	UtilPPM int64
}

// Report is the outcome of one replay: aggregate worm accounting, the
// latency distribution, and per-link congestion. All fields derive
// deterministically from the replay, so equal (engine, plan) pairs render
// byte-identical reports — the property the load-smoke CI lane pins.
type Report struct {
	Hosts int
	Sent  int64
	// Delivered worms reached their destination; Lost worms followed a
	// route the current network no longer has (stale table after a cut);
	// Blocked worms were destroyed by the blocked-port forward reset.
	Delivered, Lost, Blocked int64
	// Delayed counts delivered worms that waited for at least one link.
	Delayed int64
	// PayloadBytes is the delivered application payload volume.
	PayloadBytes int64
	// Makespan is the virtual time of the last delivery.
	Makespan time.Duration
	// ThroughputBps is delivered payload over the makespan, bytes/second.
	ThroughputBps int64
	// Latency percentiles over delivered worms (injection to tail
	// delivery), plus mean and max.
	P50, P90, P99, Mean, MaxLatency time.Duration
	// DeadlockFree records the channel-dependency-graph verdict for the
	// replayed route table.
	DeadlockFree bool
	// Links lists every directed link that carried traffic, ordered by
	// busy time descending (ties: wire then direction ascending).
	Links []LinkLoad

	// wireBusy sums both directions' busy time per wire index, kept for
	// BusyOn aggregation over link sets (e.g. the cut-adjacent links).
	wireBusy map[int]time.Duration
}

// sortedLatencies sorts the run's latencies by LSD radix on their offset
// from the least, eleven bits a pass (three passes span 8.6 s), through the
// engine's scratch slice, and returns whichever of the two holds the
// result. Neither allocates once both have grown to a run's size.
func (e *Engine) sortedLatencies() []int64 {
	const digit = 11
	src := e.lat
	if cap(e.latScratch) < len(src) {
		e.latScratch = make([]int64, len(src))
	}
	dst := e.latScratch[:len(src)]
	lo, hi := src[0], src[0]
	for _, v := range src {
		lo, hi = min(lo, v), max(hi, v)
	}
	for shift := 0; shift < bits.Len64(uint64(hi)-uint64(lo)); shift += digit {
		var starts [1 << digit]int
		for _, v := range src {
			starts[(uint64(v)-uint64(lo))>>shift%(1<<digit)]++
		}
		sum := 0
		for b, n := range starts {
			starts[b], sum = sum, sum+n
		}
		for _, v := range src {
			b := (uint64(v) - uint64(lo)) >> shift % (1 << digit)
			dst[starts[b]] = v
			starts[b]++
		}
		src, dst = dst, src
	}
	return src
}

// report assembles the Report from the engine's accumulators.
func (e *Engine) report(plan *workload.Plan) *Report {
	delivered := int64(len(e.lat))
	r := &Report{
		Hosts:        e.nh,
		Sent:         e.sent,
		Delivered:    delivered,
		Lost:         e.lost,
		Blocked:      e.blocked,
		Delayed:      e.delayed,
		PayloadBytes: delivered * int64(plan.MsgBytes),
		Makespan:     time.Duration(e.makespan),
		DeadlockFree: e.deadlockFree,
		wireBusy:     make(map[int]time.Duration),
	}
	if e.makespan > 0 {
		r.ThroughputBps = r.PayloadBytes * int64(time.Second) / e.makespan
	}
	if n := len(e.lat); n > 0 {
		lat := e.sortedLatencies()
		var sum int64
		for _, v := range lat {
			sum += v
		}
		pct := func(p int) time.Duration {
			i := (n*p + 99) / 100
			if i > 0 {
				i--
			}
			return time.Duration(lat[i])
		}
		r.P50, r.P90, r.P99 = pct(50), pct(90), pct(99)
		r.Mean = time.Duration(sum / int64(n))
		r.MaxLatency = time.Duration(lat[n-1])
	}
	for id := 0; id < e.nLinks; id++ {
		if e.linkWorms[id] == 0 {
			continue
		}
		w := e.wires[id/2]
		ll := LinkLoad{
			Wire:  id / 2,
			FromA: id%2 == 0,
			From:  w.A,
			To:    w.B,
			Busy:  time.Duration(e.linkBusy[id]),
			Wait:  time.Duration(e.linkWait[id]),
			Worms: e.linkWorms[id],
		}
		if !ll.FromA {
			ll.From, ll.To = w.B, w.A
		}
		if e.makespan > 0 {
			ll.UtilPPM = e.linkBusy[id] * 1_000_000 / e.makespan
		}
		r.Links = append(r.Links, ll)
		r.wireBusy[ll.Wire] += ll.Busy
	}
	// Busiest first; the links were appended in id order, so equally busy
	// ones stay by wire, the A-to-B direction first.
	slices.SortStableFunc(r.Links, func(a, b LinkLoad) int {
		return cmp.Compare(b.Busy, a.Busy)
	})
	return r
}

// BusyOn sums both directions' busy time over a set of wire indices — the
// aggregation sanload uses to compare congestion on the links around a cut
// between the healthy and healed replays.
func (r *Report) BusyOn(wires []int) time.Duration {
	var sum time.Duration
	seen := make(map[int]bool, len(wires))
	for _, w := range wires {
		if seen[w] {
			continue
		}
		seen[w] = true
		sum += r.wireBusy[w]
	}
	return sum
}

// MaxUtilPPM returns the most loaded directed link's utilisation (0 when
// nothing flowed).
func (r *Report) MaxUtilPPM() int64 {
	if len(r.Links) == 0 || r.Makespan == 0 {
		return 0
	}
	return r.Links[0].Busy.Nanoseconds() * 1_000_000 / r.Makespan.Nanoseconds()
}

// Matrix returns the measured demand matrix: delivered payload bytes per
// ordered host pair, over the engine's host set. Valid after Run; this is
// the traffic matrix the placement optimizer consumes.
func (e *Engine) Matrix() *workload.Matrix {
	m := workload.NewMatrix(e.hosts)
	for si := range e.hosts {
		for di := range e.hosts {
			m.Bytes[si][di] = e.pairBytes[si*e.nh+di]
		}
	}
	return m
}

// WriteText renders the report deterministically: the aggregate block,
// the latency distribution, and the topK most congested directed links
// (topK <= 0 means all). Link lines name the wire's switch endpoints; net
// supplies the node names only, so a report renders the same before and
// after its links are cut.
func (r *Report) WriteText(w io.Writer, net *topology.Network, topK int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "worms sent=%d delivered=%d lost=%d blocked=%d delayed=%d\n",
		r.Sent, r.Delivered, r.Lost, r.Blocked, r.Delayed)
	fmt.Fprintf(bw, "payload %d bytes in %v (%d bytes/s)\n",
		r.PayloadBytes, r.Makespan, r.ThroughputBps)
	fmt.Fprintf(bw, "latency p50=%v p90=%v p99=%v mean=%v max=%v\n",
		r.P50, r.P90, r.P99, r.Mean, r.MaxLatency)
	fmt.Fprintf(bw, "deadlock-free=%v congested-links=%d\n", r.DeadlockFree, len(r.Links))
	n := len(r.Links)
	if topK > 0 && topK < n {
		n = topK
	}
	for _, ll := range r.Links[:n] {
		fmt.Fprintf(bw, "link %d %s/%d->%s/%d util=%dppm worms=%d wait=%v\n",
			ll.Wire, endName(net, ll.From.Node), ll.From.Port, endName(net, ll.To.Node), ll.To.Port,
			ll.UtilPPM, ll.Worms, ll.Wait)
	}
	return bw.Flush()
}

// endName labels a node for link lines: its name when it has one, else its
// id (anonymous switches on generated fabrics).
func endName(net *topology.Network, id topology.NodeID) string {
	if n := net.NameOf(id); n != "" {
		return n
	}
	return fmt.Sprintf("sw%d", id)
}
