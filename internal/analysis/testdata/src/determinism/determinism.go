// Package determinism holds fixtures for the determinism analyzer:
// wall-clock reads, global math/rand, and order-sensitive map iteration.
package determinism

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"sanmap/internal/analysis/testdata/src/determinism/clock"
)

// badClock reads the wall clock.
func badClock() int64 {
	t := time.Now() // want "time.Now is nondeterministic"
	return t.Unix()
}

// goodClock derives times without touching the wall clock.
func goodClock() time.Time {
	return time.Unix(0, 0).Add(3 * time.Second)
}

// badGlobalRand draws from the process-global generator.
func badGlobalRand(n int) int {
	rand.Shuffle(n, func(i, j int) {}) // want "global math/rand Shuffle draws from process-global state"
	return rand.Intn(n)                // want "global math/rand Intn draws from process-global state"
}

// goodSeededRand threads an explicit generator built from a seed.
func goodSeededRand(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(n)
}

// badAppendOrder records keys in iteration order and never sorts them.
func badAppendOrder(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside map iteration records keys in randomized order"
	}
	return keys
}

// goodCollectThenSort sorts the collected keys before use.
func goodCollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// badPrintOrder writes formatted output per key.
func badPrintOrder(m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(os.Stderr, "%s=%d\n", k, v) // want "fmt.Fprintf inside map iteration writes in randomized key order"
	}
}

// badBuilderOrder appends to a string builder per key.
func badBuilderOrder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want "Builder.WriteString inside map iteration writes in randomized key order"
	}
	return b.String()
}

// badChannelOrder publishes values on a channel in iteration order.
func badChannelOrder(m map[string]int, out chan<- string) {
	for k := range m {
		out <- k // want "channel send inside map iteration publishes values in randomized order"
	}
}

// badEarlyReturn returns the first offending key, which depends on which
// key the runtime happens to visit first.
func badEarlyReturn(m map[string]int) (string, bool) {
	for k, v := range m {
		if v < 0 {
			return k, true // want "return inside map iteration depends on which key is visited first"
		}
	}
	return "", false
}

type recorder struct{ events []string }

func (r *recorder) note(s string) { r.events = append(r.events, s) }

// badEffectfulCall feeds per-key values into an effectful callee.
func badEffectfulCall(m map[string]int, r *recorder) {
	for k := range m {
		r.note(k) // want "call passes map-iteration state to an effectful function in randomized order"
	}
}

// badDerivedTaint launders the range variable through a local before
// passing it on: taint propagates through the assignment.
func badDerivedTaint(m map[string]int, r *recorder) {
	for k, v := range m {
		label := fmt.Sprint(k, v)
		r.note(label) // want "call passes map-iteration state to an effectful function in randomized order"
	}
}

// badCollectThenPublish is mapper's oracle shape with its sort dropped:
// names collected into a preallocated slice, then published one by one
// through an effectful call after the loop, in the order the runtime
// visited the keys.
func badCollectThenPublish(m map[string]int, r *recorder) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name) // want "append to names inside map iteration records keys in randomized order"
	}
	for _, name := range names {
		r.note(name)
	}
}

// goodCollectSortPublish is the same shape with the sort in place.
func goodCollectSortPublish(m map[string]int, r *recorder) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.note(name)
	}
}

func alive(v int) bool { return v > 0 }

// goodAccumulate folds order-independently: counters, min/max, writes into
// other maps, and guard calls in condition position are all fine.
func goodAccumulate(m map[string]int) (int, int) {
	total, max := 0, 0
	seen := make(map[string]bool)
	for k, v := range m {
		if alive(v) { // condition position: exempt guard call
			total += v
		}
		if v > max {
			max = v
		}
		seen[k] = true
	}
	return total, max
}

// badCrossStamp imports taint directly: the callee package reads the wall
// clock, and the import edge is where virtual time would leak.
func badCrossStamp() int64 {
	return clock.Stamp() // want "call to clock.Stamp reaches time.Now"
}

// badCrossWrap imports taint through a helper chain in the clock package;
// the chain is spelled out in the finding.
func badCrossWrap() int64 {
	return clock.Wrap() // want "call to clock.Wrap reaches Stamp -> time.Now"
}
