// Package golden is the fixture tree for cmd/sanlint's golden output test:
// one deliberate hotpath finding, plus a determinism violation that the
// scope filter must drop (this package is not in the reproducibility scope).
// The findings are asserted byte-for-byte against cmd/sanlint/testdata, so
// edits here must regenerate that golden file.
package golden

import "time"

// hotAlloc allocates on an annotated hot path (hotpath).
//
//sanlint:hotpath
func hotAlloc(n int) []int {
	return make([]int, n)
}

// stamp reads the wall clock (determinism, dropped by the scope filter);
// its taint fact still exports.
func stamp() time.Time {
	return time.Now()
}

func keep() {
	_ = hotAlloc(1)
	_ = stamp()
}

var _ = keep
