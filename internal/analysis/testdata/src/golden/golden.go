// Package golden is the fixture tree for cmd/sanlint's golden output test:
// one deliberate finding per analyzer, plus a determinism violation that the
// scope filter must drop (this package is not in the reproducibility scope).
// The findings are asserted byte-for-byte against cmd/sanlint/testdata, so
// edits here must regenerate that golden file.
package golden

import (
	"errors"
	"time"
)

// ErrStale is the sentinel for the senterr case.
var ErrStale = errors.New("stale")

// identityCompare compares a sentinel with == (senterr).
func identityCompare(err error) bool {
	return err == ErrStale
}

// hotAlloc allocates on an annotated hot path (hotpath).
//
//sanlint:hotpath
func hotAlloc(n int) []int {
	return make([]int, n)
}

// store writes guarded topology state without bumping the epoch (epochcheck).
type store struct {
	topo  map[string]int //sanlint:topostate
	epoch uint64         //sanlint:epoch
}

func (s *store) writeTopo() {
	s.topo = nil
}

// fireAndForget launches an unjoined goroutine (goroutine); the wall-clock
// read inside it is a determinism finding that the scope filter drops.
func fireAndForget() {
	go func() {
		_ = time.Now()
	}()
}

func keep() {
	_ = identityCompare(nil)
	_ = hotAlloc(1)
	(&store{}).writeTopo()
	fireAndForget()
}

var _ = keep
