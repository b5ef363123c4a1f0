// Package eventq provides the one scheduler queue of the tree: a typed
// binary min-heap for discrete-event simulators. Unlike container/heap,
// whose interface methods force every Push/Pop through an `any` conversion
// (one heap allocation per event for value types), this heap is generic over
// the element type: events are stored inline in a slice and no boxing ever
// happens. desim, wormsim and place schedule through it; their event types
// stay plain structs. container/heap is the reference its tests cross-check
// it against.
package eventq

// Heap is a typed binary min-heap ordered by the less function given to New.
// The zero value is not usable; construct with New. Heaps are not safe for
// concurrent use.
type Heap[T any] struct {
	less  func(a, b T) bool
	items []T
}

// New returns an empty heap ordered by less (a min-heap when less is
// "strictly before").
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len reports the number of queued items.
//
//sanlint:hotpath
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts v. Amortised O(log n), zero allocations once the backing
// slice has grown to the high-water mark.
//
//sanlint:hotpath
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum item. It panics on an empty heap;
// guard with Len.
//
//sanlint:hotpath
func (h *Heap[T]) Pop() T {
	n := len(h.items) - 1
	top := h.items[0]
	h.items[0] = h.items[n]
	var zero T
	h.items[n] = zero // release references held by pointerful event types
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// Peek returns the minimum item without removing it; ok is false when the
// heap is empty.
//
//sanlint:hotpath
func (h *Heap[T]) Peek() (v T, ok bool) {
	if len(h.items) == 0 {
		return v, false
	}
	return h.items[0], true
}

// Reserve grows the backing slice's capacity to hold at least n items, so a
// simulator that knows its high-water mark pays for growth once instead of
// across the first run's pushes. Growth at least doubles, so callers may
// track a rising high-water mark with repeated Reserve calls without
// triggering quadratic copying.
func (h *Heap[T]) Reserve(n int) {
	if cap(h.items) >= n {
		return
	}
	if d := 2 * cap(h.items); n < d {
		n = d
	}
	items := make([]T, len(h.items), n)
	copy(items, h.items)
	h.items = items
}

// Set replaces the item at heap slot i (0 is the minimum; other slots are
// in heap order, not sorted order) and restores heap order, the typed
// equivalent of container/heap.Fix. O(log n), no allocation. A k-way merge
// replaces the minimum with its source's next item via Set(0, next): one
// sift where Pop+Push pays two.
//
//sanlint:hotpath
func (h *Heap[T]) Set(i int, v T) {
	h.items[i] = v
	h.down(i)
	h.up(i)
}

// Reset empties the heap but keeps the backing slice, so a reused simulator
// re-fills it without reallocating.
//
//sanlint:hotpath
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

//sanlint:hotpath
func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

//sanlint:hotpath
func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(h.items[l], h.items[small]) {
			small = l
		}
		if r < n && h.less(h.items[r], h.items[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}
