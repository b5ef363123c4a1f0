package loadsim

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// radixSorted is the sort report ran on every replay's latencies before it
// selected the percentiles instead: LSD radix on each sample's offset from
// the least, eleven bits a pass. It is the oracle latencyStats is held to.
func radixSorted(lat []int64) []int64 {
	const digit = 11
	src, dst := append([]int64(nil), lat...), make([]int64, len(lat))
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

// radixStats is latencyStats read off radixSorted.
func radixStats(lat []int64) (p [3]int64, mean, hi int64) {
	s := radixSorted(lat)
	var sum int64
	for _, v := range s {
		sum += v
	}
	for i, pc := range pcts {
		p[i] = s[rank(len(s), pc)]
	}
	return p, sum / int64(len(s)), s[len(s)-1]
}

// TestPercentileSelection holds the bucket selection to the radix sort:
// every size around the rank boundaries, samples all equal, all but two in
// one bucket, runs of ties across each rank, spans past 2³³ ns and past
// 2⁶² ns, negative samples — each under a span hint that is exact, too
// small, too large, or zero.
func TestPercentileSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uniform := func(n int, span int64) []int64 {
		lat := make([]int64, n)
		for i := range lat {
			lat[i] = rng.Int63n(span + 1)
		}
		return lat
	}
	cases := map[string][]int64{}
	for _, n := range []int{1, 2, 99, 100, 101} {
		cases[fmt.Sprintf("n=%d", n)] = uniform(n, 1_000_000)
	}
	equal := make([]int64, 5000)
	for i := range equal {
		equal[i] = 123_456
	}
	cases["all equal"] = equal
	// The two outliers stretch the buckets to 2^29 ns; the rest share one.
	cluster := uniform(10_000, 1000)
	for i := range cluster {
		cluster[i] += 1 << 39
	}
	cluster[17], cluster[4242] = 0, 1<<40
	cases["one bucket"] = cluster
	// Runs of one value over ranks 45-55, 85-95 and 97-99 of 100, each
	// run holding its percentile's rank, the first two with a neighbour
	// on either side in their bucket.
	ties := make([]int64, 100)
	for i := range ties {
		ties[i] = int64(i) * 10_000
		switch {
		case i >= 45 && i <= 55:
			ties[i] = 500_000
		case i >= 85 && i <= 95:
			ties[i] = 900_000
		case i >= 97:
			ties[i] = 990_000
		}
	}
	ties[44], ties[56], ties[84], ties[96] = 499_995, 500_005, 899_995, 900_005
	rng.Shuffle(len(ties), func(i, j int) { ties[i], ties[j] = ties[j], ties[i] })
	cases["ties across ranks"] = ties
	cases["span 2^40"] = uniform(20_000, 1<<40)
	cases["span past 2^33"] = append(uniform(777, 1<<33), 1<<34+5)
	cases["span 2^62"] = uniform(3000, 1<<62)
	neg := uniform(500, 1<<30)
	for i := range neg {
		neg[i] -= 1 << 29
	}
	cases["negative"] = neg

	for name, lat := range cases {
		wp, wm, wh := radixStats(lat)
		want := [5]int64{wp[0], wp[1], wp[2], wm, wh}
		hi := slices.Max(lat)
		for _, span := range []int64{hi, 0, hi / 2, hi * 4, math.MaxInt64} {
			before := append([]int64(nil), lat...)
			p, mean, top := latencyStats(lat, span)
			if got := [5]int64{p[0], p[1], p[2], mean, top}; got != want {
				t.Errorf("%s, span %d: p50/p90/p99/mean/max %v, want %v", name, span, got, want)
			}
			if !slices.Equal(before, lat) {
				t.Fatalf("%s: latencyStats reordered its input", name)
			}
		}
	}
}

// TestScaleDivExact: a report's rates are x·scale/span rounded down for
// every x — the 14.5 GB payload whose bytes per second overflowed int64,
// and the 4 hours of busy time whose parts per million did, included — and
// saturate where the rate itself is past int64.
func TestScaleDivExact(t *testing.T) {
	for _, c := range []struct{ x, scale, span int64 }{
		{0, 1e9, 1}, {1, 1e9, 1}, {512, 1e9, 3}, {154241536, 1e9, 183207422},
		{9_223_372_036, 1e9, 1}, {9_223_372_037, 1e9, 7}, // the first payload whose product passes int64
		{14_528_000_000, 1e9, 20_051_661_477},         // a 20 s report of 4 MB worms
		{14_298_000_000_000, 1e6, 28_812_000_000_000}, // a link busy 4 h of an 8 h replay
		{math.MaxInt64, 1e9, math.MaxInt64}, {math.MaxInt64, 1e6, 1_000_000_007},
		{math.MaxInt64, 1e9, 1}, // past int64: saturates
	} {
		want := new(big.Int).Mul(big.NewInt(c.x), big.NewInt(c.scale))
		want.Quo(want, big.NewInt(c.span))
		if !want.IsInt64() {
			want.SetInt64(math.MaxInt64)
		}
		if got := scaleDiv(c.x, c.scale, c.span); got != want.Int64() {
			t.Errorf("scaleDiv(%d, %d, %d) = %d, want %d", c.x, c.scale, c.span, got, want.Int64())
		}
	}
}
