package eventq

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

func TestHeapOrdering(t *testing.T) {
	h := New(func(a, b int) bool { return a < b })
	rng := rand.New(rand.NewSource(1))
	var want []int
	for i := 0; i < 1000; i++ {
		v := rng.Intn(500)
		h.Push(v)
		want = append(want, v)
	}
	sort.Ints(want)
	for i, w := range want {
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Errorf("len = %d after draining", h.Len())
	}
}

func TestHeapStabilityViaSeq(t *testing.T) {
	// Discrete-event heaps break ties with a sequence number; equal
	// timestamps must come out in insertion order.
	h := New(evLess)
	for seq := int64(0); seq < 64; seq++ {
		h.Push(ev{at: seq % 4, seq: seq})
	}
	prev := ev{at: -1, seq: -1}
	for h.Len() > 0 {
		e := h.Pop()
		if e.at < prev.at || (e.at == prev.at && e.seq < prev.seq) {
			t.Fatalf("out of order: %+v after %+v", e, prev)
		}
		prev = e
	}
}

func TestHeapPeekAndReset(t *testing.T) {
	h := New(func(a, b int) bool { return a < b })
	if _, ok := h.Peek(); ok {
		t.Error("Peek on empty heap reported ok")
	}
	h.Push(3)
	h.Push(1)
	if v, ok := h.Peek(); !ok || v != 1 {
		t.Errorf("Peek = %d, %v; want 1, true", v, ok)
	}
	if h.Len() != 2 {
		t.Errorf("Peek consumed an item: len %d", h.Len())
	}
	h.Reset()
	if h.Len() != 0 {
		t.Errorf("len after Reset = %d", h.Len())
	}
	h.Push(7)
	if got := h.Pop(); got != 7 {
		t.Errorf("pop after Reset = %d", got)
	}
}

// TestHeapNoBoxingAllocs locks the property the package exists for: pushes
// and pops after warm-up perform no allocations at all.
func TestHeapNoBoxingAllocs(t *testing.T) {
	h := New(evLess)
	for i := 0; i < 128; i++ {
		h.Push(ev{at: int64(128 - i)})
	}
	h.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			h.Push(ev{at: int64(64 - i), seq: int64(i)})
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("AllocsPerRun = %v, want 0", allocs)
	}
}

// ev is the discrete-event shape the heap is exercised with: a virtual time
// plus a tie-breaking sequence number, giving a strict total order
// consistent with the time.
type ev struct {
	at  int64
	seq int64
}

func evLess(a, b ev) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// refHeap is the container/heap oracle Heap is cross-checked against.
type refHeap []ev

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return evLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(ev)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// adversarySchedule drives q and the container/heap oracle through the same
// randomized schedule of pushes, pops and replace-the-minimum steps (Set(0)
// against heap.Fix, the k-way-merge step workload.Plan.Merge takes), checking
// every pop and peek. Push times respect the discrete-event invariant (never before
// the last popped item) but are otherwise drawn from the given increment
// distribution.
func adversarySchedule(t *testing.T, q *Heap[ev], rng *rand.Rand, ops int, incr func(*rand.Rand) int64) {
	t.Helper()
	ref := &refHeap{}
	var now, seq int64
	for i := 0; i < ops; i++ {
		if q.Len() != ref.Len() {
			t.Fatalf("op %d: Len = %d, oracle %d", i, q.Len(), ref.Len())
		}
		op := rng.Intn(3)
		if q.Len() == 0 || op == 0 {
			e := ev{at: now + incr(rng), seq: seq}
			seq++
			q.Push(e)
			heap.Push(ref, e)
			continue
		}
		top, ok := q.Peek()
		if !ok || top != (*ref)[0] {
			t.Fatalf("op %d: Peek = %+v, %v; oracle %+v", i, top, ok, (*ref)[0])
		}
		now = top.at
		if op == 1 {
			e := ev{at: now + incr(rng), seq: seq}
			seq++
			q.Set(0, e)
			(*ref)[0] = e
			heap.Fix(ref, 0)
			continue
		}
		if got, want := q.Pop(), heap.Pop(ref).(ev); got != want {
			t.Fatalf("op %d: Pop = %+v, oracle %+v", i, got, want)
		}
	}
	for ref.Len() > 0 {
		got, want := q.Pop(), heap.Pop(ref).(ev)
		if got != want {
			t.Fatalf("drain: Pop = %+v, oracle %+v", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// The adversarial increment distributions, in the simulators' nanosecond
// ticks (550 is wormsim's SwitchLatency, 55 ms its break timer).
var adversaries = map[string]func(*rand.Rand) int64{
	// A dense burst at two adjacent instants: almost every comparison is
	// decided by the sequence number.
	"same-bucket-burst": func(rng *rand.Rand) int64 { return rng.Int63n(2) },
	// Exact timestamp ties: ordering decided purely by the sequence number.
	"all-ties": func(rng *rand.Rand) int64 { return 0 },
	// Steps on and one tick either side of multiples of the hop latency.
	"boundary": func(rng *rand.Rand) int64 {
		return 550*rng.Int63n(3) + []int64{0, 1, 549}[rng.Intn(3)]
	},
	// Mostly near events with occasional 55 ms jumps — the wormsim
	// break-timer shape: a few far-future items sit deep in the heap while
	// the near ones churn over them.
	"overflow-spikes": func(rng *rand.Rand) int64 {
		if rng.Intn(8) == 0 {
			return 55_000_000 + rng.Int63n(1000)
		}
		return rng.Int63n(1100)
	},
	// Every push far ahead of the clock, so pops always come from the
	// oldest pushes.
	"all-overflow": func(rng *rand.Rand) int64 { return 200_000 + rng.Int63n(100_000) },
	// Wide uniform spread.
	"uniform-wide": func(rng *rand.Rand) int64 { return rng.Int63n(550 * 400) },
}

func TestHeapAdversarialVsContainerHeap(t *testing.T) {
	for name, incr := range adversaries {
		t.Run(name, func(t *testing.T) {
			adversarySchedule(t, New(evLess), rand.New(rand.NewSource(42)), 20000, incr)
		})
	}
}

func TestHeapReserveSetFix(t *testing.T) {
	h := New(evLess)
	h.Reserve(64)
	if got := cap(h.items); got < 64 {
		t.Fatalf("cap after Reserve = %d", got)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := int64(0); i < 64; i++ {
			h.Push(ev{at: 64 - i, seq: i})
		}
		h.Reset()
	})
	if allocs != 0 {
		t.Errorf("AllocsPerRun after Reserve = %v, want 0", allocs)
	}
	for i := int64(0); i < 32; i++ {
		h.Push(ev{at: i, seq: i})
	}
	// Retime an arbitrary slot to the front via Set, then verify Peek sees
	// it at the minimum and the pop order is restored.
	h.Set(20, ev{at: -1, seq: 99})
	if got, _ := h.Peek(); got.seq != 99 {
		t.Fatalf("Peek after Set = %+v", got)
	}
	prev := ev{at: -2}
	for h.Len() > 0 {
		e := h.Pop()
		if evLess(e, prev) {
			t.Fatalf("out of order after Set: %+v after %+v", e, prev)
		}
		prev = e
	}
}

// BenchmarkEventq is classic hold-model churn (pop one, push one a random
// increment ahead) at steady queue sizes 1e2..1e6, for the typed heap and
// the container/heap baseline the package exists to beat.
func BenchmarkEventq(b *testing.B) {
	sizes := []int{100, 1_000, 10_000, 100_000, 1_000_000}
	incr := func(rng *rand.Rand) int64 {
		if rng.Intn(16) == 0 {
			return 55_000_000
		}
		return rng.Int63n(1100)
	}
	// Hold model: prefill n events on an increasing schedule, churn n
	// pop+push rounds so the population settles into its steady-state
	// spread (recent pushes within one max-increment of the clock), then
	// time the churn.
	hold := func(b *testing.B, n int, push func(ev), pop func() ev) {
		rng := rand.New(rand.NewSource(1))
		var at, seq int64
		for i := 0; i < n; i++ {
			at += incr(rng)
			push(ev{at: at, seq: seq})
			seq++
		}
		churn := func(k int) {
			for i := 0; i < k; i++ {
				e := pop()
				push(ev{at: e.at + incr(rng), seq: seq})
				seq++
			}
		}
		churn(n)
		b.ResetTimer()
		churn(b.N)
	}
	for _, n := range sizes {
		name := map[int]string{100: "n=1e2", 1_000: "n=1e3", 10_000: "n=1e4",
			100_000: "n=1e5", 1_000_000: "n=1e6"}[n]
		b.Run("heap/"+name, func(b *testing.B) {
			h := New(evLess)
			hold(b, n, h.Push, h.Pop)
		})
		b.Run("stdheap/"+name, func(b *testing.B) {
			ref := &refHeap{}
			hold(b, n, func(e ev) { heap.Push(ref, e) }, func() ev { return heap.Pop(ref).(ev) })
		})
	}
}
