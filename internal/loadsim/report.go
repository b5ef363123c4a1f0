package loadsim

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
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

// pcts are the latency ranks a Report gives, in percent.
var pcts = [3]int{50, 90, 99}

// rank is the 0-based index of percentile p in n sorted samples: the
// smallest sample with at least p % of the samples at or below it.
func rank(n, p int) int {
	return max((n*p+99)/100-1, 0)
}

// bucketBits is how many top bits of a latency pick its selection bucket:
// 2048 buckets, a 16 KB count array on the stack.
const bucketBits = 11

// bucket is the selection bucket of latency v when the buckets start at
// base and are 1<<shift wide; a latency past the last bucket's range counts
// in the last.
func bucket(v, base int64, shift int) uint64 {
	return min(uint64(v-base)>>shift, 1<<bucketBits-1)
}

// latencyStats returns the exact p50, p90 and p99 of lat (the samples at
// rank's indexes had lat been sorted), their mean and their maximum,
// without sorting lat; span is where the samples are expected to lie,
// [0, span]. A pass takes the least, the greatest and the sum, and counts
// the samples in each of 2048 buckets of that range, so that the buckets
// hold ascending ranges and their counts place every rank in one of them;
// a second copies out the samples of the at most three buckets that hold
// the ranks, and only those are sorted. When the samples turn out to fill
// less than a sixteenth of span, or to lie outside it, the buckets are
// counted again over [least, greatest] before the copy. lat is not
// modified and must not be empty.
func latencyStats(lat []int64, span int64) (p [3]int64, mean, hi int64) {
	base, shift := int64(0), max(bits.Len64(uint64(max(span, 0)))-bucketBits, 0)
	var count [1 << bucketBits]int
	lo, hi := lat[0], lat[0]
	var sum int64
	for _, v := range lat {
		lo, hi, sum = min(lo, v), max(hi, v), sum+v
		count[bucket(v, base, shift)]++
	}
	n := len(lat)
	mean = sum / int64(n)
	if lo == hi {
		return [3]int64{lo, lo, lo}, mean, hi
	}
	if fit := max(bits.Len64(uint64(hi)-uint64(lo))-bucketBits, 0); fit+4 < shift || lo < 0 || hi > span {
		base, shift, count = lo, fit, [1 << bucketBits]int{}
		for _, v := range lat {
			count[bucket(v, base, shift)]++
		}
	}
	// Which bucket holds each rank, and how many samples sort below it.
	var at, below [len(pcts)]int
	for i, b, sum := 0, 0, 0; i < len(pcts); i++ {
		r := rank(n, pcts[i])
		for sum+count[b] <= r {
			sum += count[b]
			b++
		}
		at[i], below[i] = b, sum
	}
	// end[b] is where bucket b's samples end in sel, for the buckets that
	// hold a rank (once each), and 0 for the rest; the copy fills each
	// bucket back to front, leaving end[b] at its start.
	var end [1 << bucketBits]int
	size := 0
	for i, b := range at {
		if i == 0 || b != at[i-1] {
			size += count[b]
			end[b] = size
		}
	}
	sel := make([]int64, size)
	for _, v := range lat {
		if b := bucket(v, base, shift); end[b] != 0 {
			end[b]--
			sel[end[b]] = v
		}
	}
	for i, b := range at {
		s := sel[end[b] : end[b]+count[b]]
		if i == 0 || b != at[i-1] {
			slices.Sort(s)
		}
		p[i] = s[rank(n, pcts[i])-below[i]]
	}
	return p, mean, hi
}

// scaleDiv is x·scale/span rounded down, exactly: the product is taken in
// 128 bits, so it cannot overflow, and a quotient past int64 reads as
// math.MaxInt64. A report's rates are scaleDiv of a total over its
// makespan — bytes per second, busy parts per million — which overflowed
// int64 arithmetic past 9.2 GB delivered, or 2.6 hours of one link's
// busy time. x and scale must not be negative, span must be positive.
func scaleDiv(x, scale, span int64) int64 {
	hi, lo := bits.Mul64(uint64(x), uint64(scale))
	if hi >= uint64(span) {
		return math.MaxInt64 // the quotient needs more than 64 bits
	}
	q, _ := bits.Div64(hi, lo, uint64(span))
	return int64(min(q, math.MaxInt64))
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
		r.ThroughputBps = scaleDiv(r.PayloadBytes, int64(time.Second), e.makespan)
	}
	if len(e.lat) > 0 {
		p, mean, hi := latencyStats(e.lat, e.makespan)
		r.P50, r.P90, r.P99 = time.Duration(p[0]), time.Duration(p[1]), time.Duration(p[2])
		r.Mean, r.MaxLatency = time.Duration(mean), time.Duration(hi)
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
			ll.UtilPPM = scaleDiv(e.linkBusy[id], 1_000_000, e.makespan)
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
	return scaleDiv(r.Links[0].Busy.Nanoseconds(), 1_000_000, r.Makespan.Nanoseconds())
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
