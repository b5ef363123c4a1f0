package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"sanmap/internal/genspec"
)

// TestAnalysisByteIdentical holds -analyze to its documented contract: the
// report is a pure function of the network, byte-identical across runs and
// across GOMAXPROCS settings.
func TestAnalysisByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	analysis := func(procs int) []byte {
		runtime.GOMAXPROCS(procs)
		res, err := genspec.Build("random:8,20,4", rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("genspec.Build: %v", err)
		}
		var buf bytes.Buffer
		if err := printAnalysis(&buf, res.Net); err != nil {
			t.Fatalf("printAnalysis: %v", err)
		}
		return buf.Bytes()
	}
	serial := analysis(1)
	again := analysis(1)
	wide := analysis(8)
	if !bytes.Equal(serial, again) {
		t.Errorf("analysis output differs between identical runs:\n--- run 1\n%s\n--- run 2\n%s", serial, again)
	}
	if !bytes.Equal(serial, wide) {
		t.Errorf("analysis output differs across GOMAXPROCS:\n--- GOMAXPROCS 1\n%s\n--- GOMAXPROCS 8\n%s", serial, wide)
	}
}
